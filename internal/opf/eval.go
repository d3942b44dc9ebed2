package opf

import (
	"math/cmplx"
	"sync"

	"repro/internal/la"
	"repro/internal/mips"
	"repro/internal/sparse"
)

// This file is the solver-facing evaluation path: the same objective,
// constraint and Hessian values as the reference methods in opf.go,
// produced by streaming the Matpower derivative formulas entry by entry
// into pattern-compiled assemblers instead of composing chains of
// complex sparse intermediates (Clone/DiagScale/AddScaled/T each
// allocate and sort). The reference implementations stay as the oracle
// — TestEvalMatchesReference pins the two paths against each other —
// and behind the exported Equality/Inequality/CostGrad seams.
//
// Every matrix here has a fixed sparsity pattern per problem structure:
// the Jacobian and Hessian patterns derive from Ybus and the branch
// list, both frozen at Prepare time. An evalScratch therefore compiles
// each assembly once and re-stamps values on every later iteration, and
// a solve's ~3 evaluations per interior-point iteration stop being the
// dominant cost of a warm solve.

// evalScratch holds the buffers and compiled assemblers one solve's
// problem callbacks reuse across iterations. Solve draws scratches from
// a package-level pool (one per concurrently running solve), so sweeps
// of one grid keep reusing the compiled assembly programs; a scratch
// that last served a different grid just recompiles on first use.
type evalScratch struct {
	ybusKey *sparse.CSCComplex // identity of the Ybus tpos was built for
	tpos    []int32            // Ybus entry -> its transpose entry (-1 if absent)

	v, vn, ibus []complex128 // voltages, unit phasors, bus injections
	sbus        []complex128
	lamC, dlam  []complex128 // dual weights λp − iλq and (Yᴴ·diagV)·λ
	ginv        []float64    // 1/|V|

	df, g, h la.Vector

	nx, neq, niq       int
	jgAsm, jhAsm, hAsm *sparse.Assembler
}

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

func (sc *evalScratch) ensure(o *OPF) {
	lay := o.Lay
	nb := lay.NB
	if len(sc.v) < nb {
		sc.v = make([]complex128, nb)
		sc.vn = make([]complex128, nb)
		sc.ibus = make([]complex128, nb)
		sc.sbus = make([]complex128, nb)
		sc.lamC = make([]complex128, nb)
		sc.dlam = make([]complex128, nb)
		sc.ginv = make([]float64, nb)
	}
	sc.v = sc.v[:nb]
	sc.vn = sc.vn[:nb]
	sc.ibus = sc.ibus[:nb]
	sc.sbus = sc.sbus[:nb]
	sc.lamC = sc.lamC[:nb]
	sc.dlam = sc.dlam[:nb]
	sc.ginv = sc.ginv[:nb]
	if cap(sc.df) < lay.NX {
		sc.df = make(la.Vector, lay.NX)
	}
	sc.df = sc.df[:lay.NX]
	if cap(sc.g) < lay.NEq {
		sc.g = make(la.Vector, lay.NEq)
	}
	sc.g = sc.g[:lay.NEq]
	niq := 2 * lay.NLRated
	if cap(sc.h) < niq {
		sc.h = make(la.Vector, niq)
	}
	sc.h = sc.h[:niq]
	if sc.jgAsm == nil || sc.neq != lay.NEq || sc.nx != lay.NX {
		sc.jgAsm = sparse.NewAssembler(lay.NEq, lay.NX)
	}
	if sc.jhAsm == nil || sc.niq != niq || sc.nx != lay.NX {
		sc.jhAsm = sparse.NewAssembler(niq, lay.NX)
	}
	if sc.hAsm == nil || sc.nx != lay.NX {
		sc.hAsm = sparse.NewAssembler(lay.NX, lay.NX)
	}
	sc.nx, sc.neq, sc.niq = lay.NX, lay.NEq, niq
	if sc.ybusKey != o.Y.Ybus {
		sc.tpos = transposePos(o.Y.Ybus, sc.tpos)
		sc.ybusKey = o.Y.Ybus
	}
}

// transposePos maps each stored entry (i,j) of y to the position of
// (j,i), or -1 when the pattern is not symmetric there. Power-system
// Ybus patterns are structurally symmetric, so the -1 case is theory
// only. Single O(nnz) pass: as the outer column index j ascends, the
// transpose partners wanted from column i are exactly column i's rows
// in ascending order, so a per-column cursor suffices.
func transposePos(y *sparse.CSCComplex, buf []int32) []int32 {
	nnz := len(y.RowIdx)
	if cap(buf) < nnz {
		buf = make([]int32, nnz)
	}
	buf = buf[:nnz]
	cur := make([]int, y.NCols)
	copy(cur, y.ColPtr[:y.NCols])
	for j := 0; j < y.NCols; j++ {
		for p := y.ColPtr[j]; p < y.ColPtr[j+1]; p++ {
			i := y.RowIdx[p]
			c := cur[i]
			for c < y.ColPtr[i+1] && y.RowIdx[c] < j {
				c++
			}
			cur[i] = c
			if c < y.ColPtr[i+1] && y.RowIdx[c] == j {
				buf[p] = int32(c)
			} else {
				buf[p] = -1
			}
		}
	}
	return buf
}

// prepPoint refreshes the voltage-dependent per-bus quantities at x.
func (o *OPF) prepPoint(sc *evalScratch, x la.Vector) {
	lay := o.Lay
	nb := lay.NB
	for i := 0; i < nb; i++ {
		vm, va := x[lay.VmOff+i], x[lay.VaOff+i]
		sc.v[i] = cmplx.Rect(vm, va)
		a := cmplx.Abs(sc.v[i])
		if a == 0 {
			sc.vn[i] = 1
			sc.ginv[i] = 0
		} else {
			sc.vn[i] = sc.v[i] / complex(a, 0)
			sc.ginv[i] = 1 / a
		}
	}
	y := o.Y.Ybus
	for i := range sc.ibus {
		sc.ibus[i] = 0
	}
	for j := 0; j < y.NCols; j++ {
		vj := sc.v[j]
		for p := y.ColPtr[j]; p < y.ColPtr[j+1]; p++ {
			sc.ibus[y.RowIdx[p]] += y.Val[p] * vj
		}
	}
}

// evalCost is costGrad writing the gradient into scratch storage.
func (o *OPF) evalCost(sc *evalScratch, x la.Vector) (float64, la.Vector) {
	lay := o.Lay
	base := o.Case.BaseMVA
	df := sc.df
	for i := range df {
		df[i] = 0
	}
	f := 0.0
	for g, gen := range o.gens {
		pmw := x[lay.PgOff+g] * base
		f += o.on(g) * gen.Cost.Eval(pmw)
		df[lay.PgOff+g] = o.on(g) * gen.Cost.Deriv(pmw) * base
	}
	return f, df
}

// injections writes the net injection Sbus at x into s: the loads, then
// the dispatch of the units in service, in per unit.
func (o *OPF) injections(s []complex128, x la.Vector) {
	base := complex(o.Case.BaseMVA, 0)
	for i, b := range o.Case.Buses {
		s[i] = -complex(b.Pd, b.Qd) / base
	}
	for g, b := range o.gbus {
		s[b] += complex(o.on(g)*x[o.Lay.PgOff+g], o.on(g)*x[o.Lay.QgOff+g])
	}
}

// evalEquality streams [Re(mis); Im(mis); Va_ref − Va0] and its
// Jacobian. The dSbus/dV entries come from the Matpower formulas
// evaluated per stored Ybus entry:
//
//	dS/dVa[i,j] = 1i·V[i]·(δij·conj(Ibus[i]) − conj(Y[i,j]·V[j]))
//	dS/dVm[i,j] = V[i]·conj(Y[i,j]·Vn[j]) + δij·conj(Ibus[i])·Vn[i]
//
// with the δ terms appended in a separate diagonal pass so correctness
// does not depend on Ybus storing every diagonal entry.
func (o *OPF) evalEquality(sc *evalScratch, x la.Vector) (la.Vector, *sparse.CSC) {
	lay := o.Lay
	nb := lay.NB
	o.prepPoint(sc, x)
	o.injections(sc.sbus, x)
	g := sc.g
	for i := 0; i < nb; i++ {
		mis := sc.v[i]*cmplx.Conj(sc.ibus[i]) - sc.sbus[i]
		g[i] = real(mis)
		g[nb+i] = imag(mis)
	}
	g[2*nb] = x[lay.VaOff+o.refIdx] - o.refVa

	y := o.Y.Ybus
	asm := sc.jgAsm
	asm.Begin()
	for j := 0; j < y.NCols; j++ {
		vj, vnj := sc.v[j], sc.vn[j]
		for p := y.ColPtr[j]; p < y.ColPtr[j+1]; p++ {
			i := y.RowIdx[p]
			yv := y.Val[p]
			dva := complex(0, 1) * sc.v[i] * -cmplx.Conj(yv*vj)
			dvm := sc.v[i] * cmplx.Conj(yv*vnj)
			asm.Append(i, lay.VaOff+j, real(dva))
			asm.Append(nb+i, lay.VaOff+j, imag(dva))
			asm.Append(i, lay.VmOff+j, real(dvm))
			asm.Append(nb+i, lay.VmOff+j, imag(dvm))
		}
	}
	for i := 0; i < nb; i++ {
		ci := cmplx.Conj(sc.ibus[i])
		dva := complex(0, 1) * sc.v[i] * ci
		dvm := ci * sc.vn[i]
		asm.Append(i, lay.VaOff+i, real(dva))
		asm.Append(nb+i, lay.VaOff+i, imag(dva))
		asm.Append(i, lay.VmOff+i, real(dvm))
		asm.Append(nb+i, lay.VmOff+i, imag(dvm))
	}
	for gi, b := range o.gbus {
		asm.Append(b, lay.PgOff+gi, -o.on(gi))    // dRe(mis)/dPg
		asm.Append(nb+b, lay.QgOff+gi, -o.on(gi)) // dIm(mis)/dQg
	}
	asm.Append(2*nb, lay.VaOff+o.refIdx, 1) // reference angle row
	return g, asm.Finish()
}

// branchEnd carries the per-branch, per-end scalars the inequality and
// Hessian paths share: the end's flow s, and the four dS/dV entries at
// the from and to buses.
type branchEnd struct {
	f, t                   int
	s                      complex128
	dVaF, dVaT, dVmF, dVmT complex128
}

// endDerivs evaluates one branch end: yf/yt are the end's admittance
// row entries, own is the end's own bus (from bus for the from end).
func (o *OPF) endDerivs(sc *evalScratch, l int, own bool) branchEnd {
	y := o.ratedY
	f, t := y.FIdx[l], y.TIdx[l]
	var yf, yt complex128
	if own {
		yf, yt = y.Yf.Vf[l], y.Yf.Vt[l]
	} else {
		yf, yt = y.Yt.Vf[l], y.Yt.Vt[l]
	}
	vf, vt := sc.v[f], sc.v[t]
	i := yf*vf + yt*vt // current into this end
	vo := vt           // the end's own voltage
	if own {
		vo = vf
	}
	ci := cmplx.Conj(i)
	j := complex(0, 1)
	e := branchEnd{f: f, t: t, s: vo * ci}
	if own {
		e.dVaF = j * (ci*vf - vf*cmplx.Conj(yf*vf))
		e.dVaT = j * (-vf * cmplx.Conj(yt*vt))
		e.dVmF = vf*cmplx.Conj(yf*sc.vn[f]) + ci*sc.vn[f]
		e.dVmT = vf * cmplx.Conj(yt*sc.vn[t])
	} else {
		e.dVaT = j * (ci*vt - vt*cmplx.Conj(yt*vt))
		e.dVaF = j * (-vt * cmplx.Conj(yf*vf))
		e.dVmT = vt*cmplx.Conj(yt*sc.vn[t]) + ci*sc.vn[t]
		e.dVmF = vt * cmplx.Conj(yf*sc.vn[f])
	}
	return e
}

// evalInequality streams [|Sf|²−rate²; |St|²−rate²] and its Jacobian
// dA/dV = 2(Re S·Re dS + Im S·Im dS), two entries per branch end.
func (o *OPF) evalInequality(sc *evalScratch, x la.Vector) (la.Vector, *sparse.CSC) {
	lay := o.Lay
	nlr := lay.NLRated
	o.prepPoint(sc, x)
	h := sc.h
	asm := sc.jhAsm
	asm.Begin()
	for l := 0; l < nlr; l++ {
		for end := 0; end < 2; end++ {
			e := o.endDerivs(sc, l, end == 0)
			p, q := real(e.s), imag(e.s)
			row := l
			if end == 1 {
				row = nlr + l
			}
			h[row] = p*p + q*q - o.rates2[l]
			asm.Append(row, lay.VaOff+e.f, 2*(p*real(e.dVaF)+q*imag(e.dVaF)))
			asm.Append(row, lay.VaOff+e.t, 2*(p*real(e.dVaT)+q*imag(e.dVaT)))
			asm.Append(row, lay.VmOff+e.f, 2*(p*real(e.dVmF)+q*imag(e.dVmF)))
			asm.Append(row, lay.VmOff+e.t, 2*(p*real(e.dVmT)+q*imag(e.dVmT)))
		}
	}
	return h, asm.Finish()
}

// evalHessian streams ∇²f + Σλ∇²g + Σµ∇²h. The power-balance block
// folds the P and Q duals into one complex pass: the assembled real
// contribution is Re(G(λp)) + Im(G(λq)) = Re(G(λp − i·λq)) since the
// d2Sbus blocks are linear in λ — half the work of the two-pass
// reference. Entries follow the Matpower d2Sbus_dV2 identities per
// stored Ybus entry (E/F/C as in the reference), with the diagonal
// correction terms in a separate pass; the branch block walks each
// rated branch once, emitting the ≤7 positions of the d2Sbr terms and
// the 4 positions of the outer-product term per end.
func (o *OPF) evalHessian(sc *evalScratch, x la.Vector, lam, mu la.Vector) *sparse.CSC {
	lay := o.Lay
	nb := lay.NB
	base := o.Case.BaseMVA
	o.prepPoint(sc, x)
	asm := sc.hAsm
	asm.Begin()

	// Cost block (diagonal in Pg). A dropped unit keeps its entry, as a
	// stored zero, so every outage assembles the intact pattern.
	for g, gen := range o.gens {
		if d2 := gen.Cost.Deriv2() * base * base; d2 != 0 {
			asm.Append(lay.PgOff+g, lay.PgOff+g, o.on(g)*d2)
		}
	}

	// Power-balance block. dlam[c] = Σ_r conj(Y[r,c])·V[r]·λ[r] is
	// (Yᴴ·diagV)·λ accumulated per stored entry.
	y := o.Y.Ybus
	for i := 0; i < nb; i++ {
		sc.lamC[i] = complex(lam[i], -lam[nb+i])
		sc.dlam[i] = 0
	}
	for j := 0; j < y.NCols; j++ {
		for p := y.ColPtr[j]; p < y.ColPtr[j+1]; p++ {
			r := y.RowIdx[p]
			sc.dlam[j] += cmplx.Conj(y.Val[p]) * sc.v[r] * sc.lamC[r]
		}
	}
	for j := 0; j < y.NCols; j++ {
		vj := sc.v[j]
		for p := y.ColPtr[j]; p < y.ColPtr[j+1]; p++ {
			i := y.RowIdx[p]
			var yt complex128
			if tp := sc.tpos[p]; tp >= 0 {
				yt = y.Val[tp] // Y[j,i]
			}
			lvi := sc.lamC[i] * sc.v[i]
			cij := lvi * cmplx.Conj(y.Val[p]*vj) // C = diag(λV)·conj(Ybus·diagV)
			// D[i,j] = conj(Y[j,i])·V[j]; E = diag(conj(V))·D·diag(λ).
			eij := cmplx.Conj(sc.v[i]) * cmplx.Conj(yt) * vj * sc.lamC[j]
			cji := sc.lamC[j] * sc.v[j] * cmplx.Conj(yt*sc.v[i])
			gaa := eij + cij
			gva := complex(0, 1) * complex(sc.ginv[i], 0) * (eij - cij)
			gvv := complex(sc.ginv[i]*sc.ginv[j], 0) * (cij + cji)
			asm.Append(lay.VaOff+i, lay.VaOff+j, real(gaa))
			asm.Append(lay.VmOff+i, lay.VaOff+j, real(gva))
			asm.Append(lay.VaOff+j, lay.VmOff+i, real(gva)) // Gav = Gvaᵀ
			asm.Append(lay.VmOff+i, lay.VmOff+j, real(gvv))
		}
	}
	for i := 0; i < nb; i++ {
		ed := -cmplx.Conj(sc.v[i]) * sc.dlam[i]              // −conj(V)·(Dλ) on diag of E
		fd := -sc.lamC[i] * sc.v[i] * cmplx.Conj(sc.ibus[i]) // −λV·conj(Ibus) on diag of F
		gaa := ed + fd
		gva := complex(0, 1) * complex(sc.ginv[i], 0) * (ed - fd)
		asm.Append(lay.VaOff+i, lay.VaOff+i, real(gaa))
		asm.Append(lay.VmOff+i, lay.VaOff+i, real(gva))
		asm.Append(lay.VaOff+i, lay.VmOff+i, real(gva))
	}

	// Branch-flow block.
	nlr := lay.NLRated
	if nlr > 0 && len(mu) == 2*nlr {
		for l := 0; l < nlr; l++ {
			for end := 0; end < 2; end++ {
				own := end == 0
				ml := mu[l]
				if !own {
					ml = mu[nlr+l]
				}
				e := o.endDerivs(sc, l, own)
				o.branchHessEnd(sc, asm, l, own, ml, e)
			}
		}
	}
	return asm.Finish()
}

// branchHessEnd emits one branch end's contribution to the four
// Hessian blocks: the d2Sbr term (lam2 = µ·conj(s)) expanded from its
// two A-matrix entries, plus the outer-product term 2µ·dSᵀ·conj(dS).
// All appended values are 2·Re(term), matching d2ASbr_dV2.
func (o *OPF) branchHessEnd(sc *evalScratch, asm *sparse.Assembler, l int, own bool, ml float64, e branchEnd) {
	lay := o.Lay
	y := o.ratedY
	var yf, yt complex128
	if own {
		yf, yt = y.Yf.Vf[l], y.Yf.Vt[l]
	} else {
		yf, yt = y.Yt.Vf[l], y.Yt.Vt[l]
	}
	f, t := e.f, e.t
	cb := t // column of the A-matrix entries: the end's own bus
	if own {
		cb = f
	}
	lam2 := cmplx.Conj(e.s) * complex(ml, 0)
	a1 := cmplx.Conj(yf) * lam2 // A[f, cb]
	a2 := cmplx.Conj(yt) * lam2 // A[t, cb]
	vcb := sc.v[cb]
	b1 := cmplx.Conj(sc.v[f]) * a1 * vcb // B[f, cb]
	b2 := cmplx.Conj(sc.v[t]) * a2 * vcb // B[t, cb]
	gf := complex(sc.ginv[f], 0)
	gt := complex(sc.ginv[t], 0)
	gcb := complex(sc.ginv[cb], 0)
	j := complex(0, 1)

	va, vm := lay.VaOff, lay.VmOff
	// emit appends 2·Re of the (aa, va, vv) values at (i,j) and the
	// transposed hav entry at (VaOff+j, VmOff+i).
	emit := func(i, jc int, aa, hva, vv complex128) {
		asm.Append(va+i, va+jc, 2*real(aa))
		asm.Append(vm+i, va+jc, 2*real(hva))
		asm.Append(va+jc, vm+i, 2*real(hva))
		asm.Append(vm+i, vm+jc, 2*real(vv))
	}
	// B and Bᵀ entries.
	emit(f, cb, b1, j*gf*b1, gf*gcb*b1)
	emit(t, cb, b2, j*gt*b2, gt*gcb*b2)
	emit(cb, f, b1, -j*gcb*b1, gcb*gf*b1)
	emit(cb, t, b2, -j*gcb*b2, gcb*gt*b2)
	// Diagonal corrections: −diag(dd) at the A rows, −diag(ee) at cb.
	emit(f, f, -b1, -j*gf*b1, 0)
	emit(t, t, -b2, -j*gt*b2, 0)
	emit(cb, cb, -(b1 + b2), j*gcb*(b1+b2), 0)

	// Outer-product term: w·dSa[r]·conj(dSb[c]) at (r,c) for the four
	// bus pairs, for each (block row deriv, block col deriv) pairing.
	w := complex(ml, 0)
	outer := func(a1, a2, b1, b2 complex128, rOff, cOff int) {
		cb1, cb2 := cmplx.Conj(b1), cmplx.Conj(b2)
		asm.Append(rOff+f, cOff+f, 2*real(w*a1*cb1))
		asm.Append(rOff+f, cOff+t, 2*real(w*a1*cb2))
		asm.Append(rOff+t, cOff+f, 2*real(w*a2*cb1))
		asm.Append(rOff+t, cOff+t, 2*real(w*a2*cb2))
	}
	outer(e.dVaF, e.dVaT, e.dVaF, e.dVaT, va, va) // haa
	outer(e.dVmF, e.dVmT, e.dVaF, e.dVaT, vm, va) // hva
	outer(e.dVaF, e.dVaT, e.dVmF, e.dVmT, va, vm) // hav
	outer(e.dVmF, e.dVmT, e.dVmF, e.dVmT, vm, vm) // hvv
}

// problemWith binds the solver-facing evaluation path to sc.
func (o *OPF) problemWith(sc *evalScratch) *mips.Problem {
	sc.ensure(o)
	return &mips.Problem{
		NX: o.Lay.NX,
		F: func(x la.Vector) (float64, la.Vector) {
			return o.evalCost(sc, x)
		},
		G: func(x la.Vector) (la.Vector, *sparse.CSC) {
			return o.evalEquality(sc, x)
		},
		H: func(x la.Vector) (la.Vector, *sparse.CSC) {
			if o.Lay.NLRated == 0 {
				return nil, nil
			}
			return o.evalInequality(sc, x)
		},
		Hess: func(x la.Vector, lam, mu la.Vector) *sparse.CSC {
			return o.evalHessian(sc, x, lam, mu)
		},
		XMin: o.xmin,
		XMax: o.xmax,
	}
}
