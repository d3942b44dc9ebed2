package grid

import (
	"math/cmplx"

	"repro/internal/sparse"
)

// This file ports the Matpower first-order AC power-flow derivative
// formulas (dSbus_dV, dSbr_dV, dAbr_dV) to the sparse kernel of this
// repository; the second-order ones live with the reference Hessian in
// internal/opf's tests. Voltages are polar: derivatives are taken with
// respect to bus angles Va (radians) and magnitudes Vm (per unit).

// BranchMatReal is the real-valued analogue of BranchMat (two entries per
// row at the from/to bus columns); it carries derivatives of squared flow
// magnitudes.
type BranchMatReal struct {
	NB     int
	F, T   []int
	Vf, Vt []float64
}

// DSbusDV returns the partial derivatives of the complex bus power
// injections S = V·conj(Ybus·V) with respect to voltage angle and
// magnitude: dS/dVa and dS/dVm, both nb×nb complex.
func DSbusDV(ybus *sparse.CSCComplex, v []complex128) (dVa, dVm *sparse.CSCComplex) {
	ibus := ybus.MulVec(v)
	vn := vnorm(v)
	// dS/dVa = j·diagV·conj(diagIbus − Ybus·diagV)
	m := ybus.Clone().DiagScaleRight(v)                  // Ybus·diagV
	n := sparse.DiagC(ibus).AddScaled(-1, m)             // diagIbus − Ybus·diagV
	dVa = n.Conj().DiagScaleLeft(v).Scale(complex(0, 1)) // j·diagV·conj(·)
	// dS/dVm = diagV·conj(Ybus·diagVnorm) + conj(diagIbus)·diagVnorm
	m2 := ybus.Clone().DiagScaleRight(vn).Conj().DiagScaleLeft(v)
	d := make([]complex128, len(v))
	for i := range d {
		d[i] = cmplx.Conj(ibus[i]) * vn[i]
	}
	dVm = m2.AddDiag(d)
	return dVa, dVm
}

// DSbrDV returns the partial derivatives of the branch power flows at the
// from and to ends with respect to Va and Vm, together with the flows
// themselves. All four derivative matrices are nl×nb BranchMats.
func DSbrDV(y *YMatrices, v []complex128) (dSfVa, dSfVm, dStVa, dStVm *BranchMat, sf, st []complex128) {
	nl := y.Yf.NL()
	nb := len(v)
	ifr := y.Yf.MulVec(v)
	ito := y.Yt.MulVec(v)
	vn := vnorm(v)
	sf = make([]complex128, nl)
	st = make([]complex128, nl)
	dSfVa = NewBranchMat(nl, nb)
	dSfVm = NewBranchMat(nl, nb)
	dStVa = NewBranchMat(nl, nb)
	dStVm = NewBranchMat(nl, nb)
	for l := 0; l < nl; l++ {
		f, t := y.FIdx[l], y.TIdx[l]
		vf, vt := v[f], v[t]
		yff, yft := y.Yf.Vf[l], y.Yf.Vt[l]
		ytf, ytt := y.Yt.Vf[l], y.Yt.Vt[l]
		sf[l] = vf * cmplx.Conj(ifr[l])
		st[l] = vt * cmplx.Conj(ito[l])
		j := complex(0, 1)
		// From end.
		dSfVa.F[l], dSfVa.T[l] = f, t
		dSfVa.Vf[l] = j * (cmplx.Conj(ifr[l])*vf - vf*cmplx.Conj(yff*vf))
		dSfVa.Vt[l] = j * (-vf * cmplx.Conj(yft*vt))
		dSfVm.F[l], dSfVm.T[l] = f, t
		dSfVm.Vf[l] = vf*cmplx.Conj(yff*vn[f]) + cmplx.Conj(ifr[l])*vn[f]
		dSfVm.Vt[l] = vf * cmplx.Conj(yft*vn[t])
		// To end.
		dStVa.F[l], dStVa.T[l] = f, t
		dStVa.Vt[l] = j * (cmplx.Conj(ito[l])*vt - vt*cmplx.Conj(ytt*vt))
		dStVa.Vf[l] = j * (-vt * cmplx.Conj(ytf*vf))
		dStVm.F[l], dStVm.T[l] = f, t
		dStVm.Vt[l] = vt*cmplx.Conj(ytt*vn[t]) + cmplx.Conj(ito[l])*vn[t]
		dStVm.Vf[l] = vt * cmplx.Conj(ytf*vn[f])
	}
	return
}

// DAbrDV converts branch-flow derivatives into derivatives of the squared
// apparent-power magnitudes A = |S|²: dA/dV = 2(Re S·Re dS + Im S·Im dS).
func DAbrDV(dSVa, dSVm *BranchMat, s []complex128) (dAVa, dAVm *BranchMatReal) {
	nl := dSVa.NL()
	dAVa = &BranchMatReal{NB: dSVa.NB, F: make([]int, nl), T: make([]int, nl), Vf: make([]float64, nl), Vt: make([]float64, nl)}
	dAVm = &BranchMatReal{NB: dSVm.NB, F: make([]int, nl), T: make([]int, nl), Vf: make([]float64, nl), Vt: make([]float64, nl)}
	for l := 0; l < nl; l++ {
		p, q := real(s[l]), imag(s[l])
		dAVa.F[l], dAVa.T[l] = dSVa.F[l], dSVa.T[l]
		dAVa.Vf[l] = 2 * (p*real(dSVa.Vf[l]) + q*imag(dSVa.Vf[l]))
		dAVa.Vt[l] = 2 * (p*real(dSVa.Vt[l]) + q*imag(dSVa.Vt[l]))
		dAVm.F[l], dAVm.T[l] = dSVm.F[l], dSVm.T[l]
		dAVm.Vf[l] = 2 * (p*real(dSVm.Vf[l]) + q*imag(dSVm.Vf[l]))
		dAVm.Vt[l] = 2 * (p*real(dSVm.Vt[l]) + q*imag(dSVm.Vt[l]))
	}
	return
}
