package opf

// The assembled reference Hessian TestEvalMatchesReference compares the
// slot-stamped production Hessian against: Matpower's second-derivative
// formulas (d2Sbus_dV2, d2Sbr_dV2, d2ASbr_dV2) on general complex
// sparse matrices, appended through a Builder, and the finite-difference
// checks that pin those formulas.

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/sparse"
)

// hessian assembles ∇²f + Σλ∇²g + Σµ∇²h in the packed x layout.
func (o *OPF) hessian(x la.Vector, lam, mu la.Vector) *sparse.CSC {
	lay := o.Lay
	nb := lay.NB
	base := o.Case.BaseMVA
	v := o.voltages(x)
	hb := sparse.NewBuilder(lay.NX, lay.NX)

	// Cost block (diagonal in Pg).
	for g, gen := range o.gens {
		if d2 := gen.Cost.Deriv2() * base * base; d2 != 0 {
			hb.Append(lay.PgOff+g, lay.PgOff+g, o.on(g)*d2)
		}
	}

	// Power-balance block.
	lamP := make([]complex128, nb)
	lamQ := make([]complex128, nb)
	for i := 0; i < nb; i++ {
		lamP[i] = complex(lam[i], 0)
		lamQ[i] = complex(lam[nb+i], 0)
	}
	paa, pav, pva, pvv := d2SbusDV2(o.Y.Ybus, v, lamP)
	qaa, qav, qva, qvv := d2SbusDV2(o.Y.Ybus, v, lamQ)
	appendRealImagSum(hb, paa, qaa, lay.VaOff, lay.VaOff)
	appendRealImagSum(hb, pav, qav, lay.VaOff, lay.VmOff)
	appendRealImagSum(hb, pva, qva, lay.VmOff, lay.VaOff)
	appendRealImagSum(hb, pvv, qvv, lay.VmOff, lay.VmOff)

	// Branch-flow block.
	nlr := lay.NLRated
	if nlr > 0 && len(mu) == 2*nlr {
		dSfVa, dSfVm, dStVa, dStVm, sf, st := grid.DSbrDV(o.ratedY, v)
		muF := mu[:nlr]
		muT := mu[nlr:]
		faa, fav, fva, fvv := d2ASbrDV2(dSfVa, dSfVm, sf, o.ratedY.Yf, true, v, muF)
		taa, tav, tva, tvv := d2ASbrDV2(dStVa, dStVm, st, o.ratedY.Yt, false, v, muT)
		hb.AppendCSC(lay.VaOff, lay.VaOff, 1, faa)
		hb.AppendCSC(lay.VaOff, lay.VmOff, 1, fav)
		hb.AppendCSC(lay.VmOff, lay.VaOff, 1, fva)
		hb.AppendCSC(lay.VmOff, lay.VmOff, 1, fvv)
		hb.AppendCSC(lay.VaOff, lay.VaOff, 1, taa)
		hb.AppendCSC(lay.VaOff, lay.VmOff, 1, tav)
		hb.AppendCSC(lay.VmOff, lay.VaOff, 1, tva)
		hb.AppendCSC(lay.VmOff, lay.VmOff, 1, tvv)
	}
	return hb.ToCSC()
}

func appendRealImagSum(hb *sparse.Builder, re, im *sparse.CSCComplex, rowOff, colOff int) {
	for j := 0; j < re.NCols; j++ {
		for p := re.ColPtr[j]; p < re.ColPtr[j+1]; p++ {
			hb.Append(rowOff+re.RowIdx[p], colOff+j, real(re.Val[p]))
		}
	}
	for j := 0; j < im.NCols; j++ {
		for p := im.ColPtr[j]; p < im.ColPtr[j+1]; p++ {
			hb.Append(rowOff+im.RowIdx[p], colOff+j, imag(im.Val[p]))
		}
	}
}

// d2SbusDV2 returns the second derivatives of the λ-weighted bus power
// injections, λᵀ·S(Va,Vm): four nb×nb complex blocks (Gaa, Gav, Gva, Gvv)
// over [Va; Vm].
func d2SbusDV2(ybus *sparse.CSCComplex, v, lam []complex128) (gaa, gav, gva, gvv *sparse.CSCComplex) {
	n := len(v)
	ibus := ybus.MulVec(v)
	lamV := make([]complex128, n)
	for i := range lamV {
		lamV[i] = lam[i] * v[i]
	}
	b := ybus.Clone().DiagScaleRight(v)            // Ybus·diagV
	c := b.Clone().Conj().DiagScaleLeft(lamV)      // A·conj(B)
	d := transposeC(ybus).Conj().DiagScaleRight(v) // Ybusᴴ·diagV
	dl := d.MulVec(lam)                            // D·λ
	e := d.Clone().DiagScaleRight(lam)             // D·diagλ
	e = e.AddScaled(-1, sparse.DiagC(dl))          // − diag(D·λ)
	e = e.DiagScaleLeft(conjVec(v))                // conj(diagV)·(...)
	fdiag := make([]complex128, n)
	for i := range fdiag {
		fdiag[i] = lamV[i] * cmplx.Conj(ibus[i])
	}
	f := c.AddScaled(-1, sparse.DiagC(fdiag)) // C − A·diag(conj(Ibus))
	ginv := make([]complex128, n)
	for i := range ginv {
		ginv[i] = complex(1/cmplx.Abs(v[i]), 0)
	}
	gaa = e.AddScaled(1, f)
	gva = e.AddScaled(-1, f).DiagScaleLeft(ginv).Scale(complex(0, 1))
	gav = transposeC(gva)
	gvv = c.AddScaled(1, transposeC(c)).DiagScaleLeft(ginv).DiagScaleRight(ginv)
	return
}

// d2SbrDV2 returns the second derivatives of λᵀ·Sbr for one branch end.
// ybr is the Yf or Yt BranchMat; connAtFrom selects whether the end's
// connection matrix places the branch at its from (true) or to bus.
func d2SbrDV2(ybr *grid.BranchMat, connAtFrom bool, v, lam []complex128) (haa, hav, hva, hvv *sparse.CSCComplex) {
	nb := len(v)
	// A = Ybrᴴ·diagλ·Cbr, assembled line by line (2 entries per line).
	ab := sparse.NewBuilderC(nb, nb)
	for l := range ybr.F {
		cb := ybr.F[l]
		if !connAtFrom {
			cb = ybr.T[l]
		}
		ab.Append(ybr.F[l], cb, cmplx.Conj(ybr.Vf[l])*lam[l])
		ab.Append(ybr.T[l], cb, cmplx.Conj(ybr.Vt[l])*lam[l])
	}
	a := ab.ToCSC()
	b := a.Clone().DiagScaleLeft(conjVec(v)).DiagScaleRight(v) // conj(diagV)·A·diagV
	av := a.MulVec(v)
	atcv := mulVecTC(a, conjVec(v))
	dd := make([]complex128, nb)
	ee := make([]complex128, nb)
	for i := 0; i < nb; i++ {
		dd[i] = av[i] * cmplx.Conj(v[i])
		ee[i] = atcv[i] * v[i]
	}
	bt := transposeC(b)
	fm := b.AddScaled(1, bt)
	ginv := make([]complex128, nb)
	for i := range ginv {
		ginv[i] = complex(1/cmplx.Abs(v[i]), 0)
	}
	haa = fm.AddScaled(-1, sparse.DiagC(dd)).AddScaled(-1, sparse.DiagC(ee))
	hva = b.AddScaled(-1, bt).AddScaled(-1, sparse.DiagC(dd)).AddScaled(1, sparse.DiagC(ee)).
		DiagScaleLeft(ginv).Scale(complex(0, 1))
	hav = transposeC(hva)
	hvv = fm.Clone().DiagScaleLeft(ginv).DiagScaleRight(ginv)
	return
}

// outerBranch accumulates Σ_l w_l · a(l,:)ᵀ ⊗ conj(b(l,:)) — the
// Jacobian-outer-product term of the squared-flow Hessian. Result is
// nb×nb complex.
func outerBranch(a, b *grid.BranchMat, w []float64) *sparse.CSCComplex {
	bld := sparse.NewBuilderC(a.NB, a.NB)
	for l := range a.F {
		wl := complex(w[l], 0)
		af, at := a.Vf[l], a.Vt[l]
		bf, bt := cmplx.Conj(b.Vf[l]), cmplx.Conj(b.Vt[l])
		bld.Append(a.F[l], b.F[l], wl*af*bf)
		bld.Append(a.F[l], b.T[l], wl*af*bt)
		bld.Append(a.T[l], b.F[l], wl*at*bf)
		bld.Append(a.T[l], b.T[l], wl*at*bt)
	}
	return bld.ToCSC()
}

// d2ASbrDV2 returns the second derivatives of Σ_l µ_l·|Sbr_l|² over
// [Va; Vm] as four real nb×nb blocks. dSVa/dSVm and sbr come from DSbrDV
// for the same branch end; ybr/connAtFrom identify the end.
func d2ASbrDV2(dSVa, dSVm *grid.BranchMat, sbr []complex128, ybr *grid.BranchMat, connAtFrom bool, v []complex128, mu []float64) (haa, hav, hva, hvv *sparse.CSC) {
	nl := len(mu)
	lam2 := make([]complex128, nl)
	for l := 0; l < nl; l++ {
		lam2[l] = cmplx.Conj(sbr[l]) * complex(mu[l], 0)
	}
	saa, sav, sva, svv := d2SbrDV2(ybr, connAtFrom, v, lam2)
	haa = twiceRealPart(saa.AddScaled(1, outerBranch(dSVa, dSVa, mu)))
	hva = twiceRealPart(sva.AddScaled(1, outerBranch(dSVm, dSVa, mu)))
	hav = twiceRealPart(sav.AddScaled(1, outerBranch(dSVa, dSVm, mu)))
	hvv = twiceRealPart(svv.AddScaled(1, outerBranch(dSVm, dSVm, mu)))
	return
}

// conjVec returns conj(v) as a new slice.
func conjVec(v []complex128) []complex128 {
	out := make([]complex128, len(v))
	for i, x := range v {
		out[i] = complex(real(x), -imag(x))
	}
	return out
}

// transposeC returns the pure transpose aᵀ (no conjugation).
func transposeC(a *sparse.CSCComplex) *sparse.CSCComplex {
	b := sparse.NewBuilderC(a.NCols, a.NRows)
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			b.Append(j, a.RowIdx[p], a.Val[p])
		}
	}
	return b.ToCSC()
}

// mulVecTC returns aᵀ·x (pure transpose, no conjugation).
func mulVecTC(a *sparse.CSCComplex, x []complex128) []complex128 {
	y := make([]complex128, a.NCols)
	for j := 0; j < a.NCols; j++ {
		var s complex128
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			s += a.Val[p] * x[a.RowIdx[p]]
		}
		y[j] = s
	}
	return y
}

// twiceRealPart returns 2·Re(a) as a real CSC matrix, explicit zeros
// kept so the pattern stays aligned with the complex parent.
func twiceRealPart(a *sparse.CSCComplex) *sparse.CSC {
	b := sparse.NewBuilder(a.NRows, a.NCols)
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			b.Append(a.RowIdx[p], j, 2*real(a.Val[p]))
		}
	}
	return b.ToCSC()
}

// entryC returns element (i, j) of a.
func entryC(a *sparse.CSCComplex, i, j int) complex128 {
	for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
		if a.RowIdx[p] == i {
			return a.Val[p]
		}
	}
	return 0
}

// entryR returns element (i, j) of a.
func entryR(a *sparse.CSC, i, j int) float64 {
	for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
		if a.RowIdx[p] == i {
			return a.Val[p]
		}
	}
	return 0
}

// testVoltage returns a slightly perturbed non-flat voltage profile.
func testVoltage(nb int) ([]float64, []float64) {
	vm := make([]float64, nb)
	va := make([]float64, nb)
	for i := 0; i < nb; i++ {
		vm[i] = 1.0 + 0.03*math.Sin(float64(i)+1)
		va[i] = 0.05 * math.Cos(2*float64(i))
	}
	return vm, va
}

// phiSbus is the λ-weighted injection scalar used to validate the bus
// Hessians: φ = Σ_i (lamP_i·Re S_i + lamQ_i·Im S_i).
func phiSbus(c *grid.Case, y *grid.YMatrices, lamP, lamQ, vm, va []float64) float64 {
	v := grid.Voltage(vm, va)
	ib := y.Ybus.MulVec(v)
	var phi float64
	for i := range v {
		s := v[i] * cmplx.Conj(ib[i])
		phi += lamP[i]*real(s) + lamQ[i]*imag(s)
	}
	return phi
}

func TestD2SbusDV2FiniteDiff(t *testing.T) {
	c := grid.Case9()
	y := grid.MakeYbus(c)
	nb := c.NB()
	vm, va := testVoltage(nb)
	lamP := make([]float64, nb)
	lamQ := make([]float64, nb)
	lamPc := make([]complex128, nb)
	lamQc := make([]complex128, nb)
	for i := 0; i < nb; i++ {
		lamP[i] = 0.5 + 0.1*float64(i)
		lamQ[i] = -0.3 + 0.05*float64(i)
		lamPc[i] = complex(lamP[i], 0)
		lamQc[i] = complex(lamQ[i], 0)
	}
	v := grid.Voltage(vm, va)
	pa, pv, pva, pvv := d2SbusDV2(y.Ybus, v, lamPc)
	qa, qv, qva, qvv := d2SbusDV2(y.Ybus, v, lamQc)
	// Analytic Hessian entry over z = [va; vm].
	hess := func(i, j int) float64 {
		var re, im float64
		switch {
		case i < nb && j < nb:
			re, im = real(entryC(pa, i, j)), imag(entryC(qa, i, j))
		case i < nb && j >= nb:
			re, im = real(entryC(pv, i, j-nb)), imag(entryC(qv, i, j-nb))
		case i >= nb && j < nb:
			re, im = real(entryC(pva, i-nb, j)), imag(entryC(qva, i-nb, j))
		default:
			re, im = real(entryC(pvv, i-nb, j-nb)), imag(entryC(qvv, i-nb, j-nb))
		}
		return re + im
	}
	phi := func(z []float64) float64 {
		return phiSbus(c, y, lamP, lamQ, z[nb:], z[:nb])
	}
	z0 := append(append([]float64(nil), va...), vm...)
	h := 1e-5
	for i := 0; i < 2*nb; i++ {
		for j := 0; j < 2*nb; j++ {
			zpp := append([]float64(nil), z0...)
			zpm := append([]float64(nil), z0...)
			zmp := append([]float64(nil), z0...)
			zmm := append([]float64(nil), z0...)
			zpp[i] += h
			zpp[j] += h
			zpm[i] += h
			zpm[j] -= h
			zmp[i] -= h
			zmp[j] += h
			zmm[i] -= h
			zmm[j] -= h
			fd := (phi(zpp) - phi(zpm) - phi(zmp) + phi(zmm)) / (4 * h * h)
			if math.Abs(fd-hess(i, j)) > 2e-4*(1+math.Abs(fd)) {
				t.Fatalf("d2Sbus H[%d,%d]: fd %v analytic %v", i, j, fd, hess(i, j))
			}
		}
	}
}

func TestD2ASbrDV2FiniteDiff(t *testing.T) {
	c := grid.Case9()
	y := grid.MakeYbus(c)
	nb := c.NB()
	nl := y.Yf.NL()
	vm, va := testVoltage(nb)
	mu := make([]float64, nl)
	for l := range mu {
		mu[l] = 0.2 + 0.1*float64(l)
	}
	v := grid.Voltage(vm, va)
	dSfVa, dSfVm, _, _, sf, _ := grid.DSbrDV(y, v)
	haa, hav, hva, hvv := d2ASbrDV2(dSfVa, dSfVm, sf, y.Yf, true, v, mu)
	hess := func(i, j int) float64 {
		switch {
		case i < nb && j < nb:
			return entryR(haa, i, j)
		case i < nb && j >= nb:
			return entryR(hav, i, j-nb)
		case i >= nb && j < nb:
			return entryR(hva, i-nb, j)
		default:
			return entryR(hvv, i-nb, j-nb)
		}
	}
	psi := func(z []float64) float64 {
		sfz, _ := grid.BranchFlows(y, grid.Voltage(z[nb:], z[:nb]))
		var s float64
		for l := range sfz {
			m := cmplx.Abs(sfz[l])
			s += mu[l] * m * m
		}
		return s
	}
	z0 := append(append([]float64(nil), va...), vm...)
	h := 1e-5
	for i := 0; i < 2*nb; i++ {
		for j := 0; j < 2*nb; j++ {
			zpp := append([]float64(nil), z0...)
			zpm := append([]float64(nil), z0...)
			zmp := append([]float64(nil), z0...)
			zmm := append([]float64(nil), z0...)
			zpp[i] += h
			zpp[j] += h
			zpm[i] += h
			zpm[j] -= h
			zmp[i] -= h
			zmp[j] += h
			zmm[i] -= h
			zmm[j] -= h
			fd := (psi(zpp) - psi(zpm) - psi(zmp) + psi(zmm)) / (4 * h * h)
			if math.Abs(fd-hess(i, j)) > 5e-4*(1+math.Abs(fd)) {
				t.Fatalf("d2ASbr H[%d,%d]: fd %v analytic %v", i, j, fd, hess(i, j))
			}
		}
	}
}
