package grid

import (
	"math/cmplx"

	"repro/internal/sparse"
)

// BranchMat is an nl×nb complex matrix with exactly two structural entries
// per row, at the from- and to-bus columns of each branch. The branch
// admittance matrices Yf/Yt and all branch-flow derivative matrices share
// this shape; keeping it explicit makes Jacobian assembly and the
// outer-product Hessian terms O(nl) instead of generic sparse products.
type BranchMat struct {
	NB     int          // number of columns (buses)
	F, T   []int        // bus index of the two entries per row
	Vf, Vt []complex128 // entry values at columns F[l] and T[l]
}

// NewBranchMat allocates a BranchMat for nl branches over nb buses.
func NewBranchMat(nl, nb int) *BranchMat {
	return &BranchMat{
		NB: nb,
		F:  make([]int, nl), T: make([]int, nl),
		Vf: make([]complex128, nl), Vt: make([]complex128, nl),
	}
}

// NL returns the number of rows (branches).
func (m *BranchMat) NL() int { return len(m.F) }

// MulVec returns m·x for a complex vector of length NB.
func (m *BranchMat) MulVec(x []complex128) []complex128 {
	y := make([]complex128, m.NL())
	for l := range m.F {
		y[l] = m.Vf[l]*x[m.F[l]] + m.Vt[l]*x[m.T[l]]
	}
	return y
}

// YMatrices bundles the admittance matrices of a case.
type YMatrices struct {
	Ybus   *sparse.CSCComplex // nb×nb bus admittance matrix
	Yf, Yt *BranchMat         // nl×nb from/to branch admittance
	FIdx   []int              // from-bus index per in-service branch
	TIdx   []int              // to-bus index per in-service branch
}

// MakeYbus builds the bus and branch admittance matrices of the case,
// following the Matpower construction (taps, phase shifts, line charging
// and bus shunts included). Only in-service branches contribute.
func MakeYbus(c *Case) *YMatrices {
	nb := c.NB()
	branches := c.ActiveBranches()
	nl := len(branches)
	yf := NewBranchMat(nl, nb)
	yt := NewBranchMat(nl, nb)
	yb := sparse.NewBuilderC(nb, nb)
	fIdx := make([]int, nl)
	tIdx := make([]int, nl)
	for l, br := range branches {
		ys := 1 / complex(br.R, br.X)
		bc := complex(0, br.B/2)
		tap := complex(1, 0)
		if br.Ratio != 0 {
			tap = complex(br.Ratio, 0)
		}
		if br.Shift != 0 {
			tap *= cmplx.Exp(complex(0, Deg2Rad(br.Shift)))
		}
		ytt := ys + bc
		yff := ytt / (tap * cmplx.Conj(tap))
		yft := -ys / cmplx.Conj(tap)
		ytf := -ys / tap
		f := c.BusIndex(br.From)
		t := c.BusIndex(br.To)
		fIdx[l], tIdx[l] = f, t
		yf.F[l], yf.T[l], yf.Vf[l], yf.Vt[l] = f, t, yff, yft
		yt.F[l], yt.T[l], yt.Vf[l], yt.Vt[l] = f, t, ytf, ytt
		yb.Append(f, f, yff)
		yb.Append(f, t, yft)
		yb.Append(t, f, ytf)
		yb.Append(t, t, ytt)
	}
	for i, bus := range c.Buses {
		if bus.Gs != 0 || bus.Bs != 0 {
			yb.Append(i, i, complex(bus.Gs, bus.Bs)/complex(c.BaseMVA, 0))
		}
	}
	return &YMatrices{Ybus: yb.ToCSC(), Yf: yf, Yt: yt, FIdx: fIdx, TIdx: tIdx}
}

// Voltage assembles the complex bus voltage vector from magnitude (pu) and
// angle (radians) slices.
func Voltage(vm, va []float64) []complex128 {
	v := make([]complex128, len(vm))
	for i := range vm {
		v[i] = cmplx.Rect(vm[i], va[i])
	}
	return v
}

// MakeSbus returns the net complex power injection at each bus in per
// unit: (Cg·Sg − Sd)/baseMVA, with pg/qg the per-unit dispatch of the
// in-service generators in ActiveGens order. The OPF evaluates its
// injections through its own compiled program; MakeSbus is the
// independent evaluation the tests check a stored or solved operating
// point against (with PowerMismatch), and the one an answer certificate
// would use.
func MakeSbus(c *Case, pg, qg []float64) []complex128 {
	nb := c.NB()
	s := make([]complex128, nb)
	gi := 0
	for _, g := range c.Gens {
		if !g.Status {
			continue
		}
		s[c.BusIndex(g.Bus)] += complex(pg[gi], qg[gi])
		gi++
	}
	for i, b := range c.Buses {
		s[i] -= complex(b.Pd, b.Qd) / complex(c.BaseMVA, 0)
	}
	return s
}

// GenBusIdx returns the bus index of each in-service generator.
func GenBusIdx(c *Case) []int {
	idx := make([]int, 0, len(c.Gens))
	for _, g := range c.Gens {
		if g.Status {
			idx = append(idx, c.BusIndex(g.Bus))
		}
	}
	return idx
}

// PowerMismatch returns the complex power-balance mismatch
// V·conj(Ybus·V) − Sbus in per unit; zero at a solved power flow.
func PowerMismatch(y *YMatrices, v, sbus []complex128) []complex128 {
	ib := y.Ybus.MulVec(v)
	mis := make([]complex128, len(v))
	for i := range v {
		mis[i] = v[i]*cmplx.Conj(ib[i]) - sbus[i]
	}
	return mis
}

// BranchFlows returns the complex power flow into each branch at its from
// and to ends, in per unit.
func BranchFlows(y *YMatrices, v []complex128) (sf, st []complex128) {
	ifr := y.Yf.MulVec(v)
	ito := y.Yt.MulVec(v)
	nl := y.Yf.NL()
	sf = make([]complex128, nl)
	st = make([]complex128, nl)
	for l := 0; l < nl; l++ {
		sf[l] = v[y.FIdx[l]] * cmplx.Conj(ifr[l])
		st[l] = v[y.TIdx[l]] * cmplx.Conj(ito[l])
	}
	return sf, st
}

// vnorm returns V./|V| (unit-magnitude phasors).
func vnorm(v []complex128) []complex128 {
	out := make([]complex128, len(v))
	for i, x := range v {
		a := cmplx.Abs(x)
		if a == 0 {
			out[i] = 1
			continue
		}
		out[i] = x / complex(a, 0)
	}
	return out
}
