// Package opf assembles the AC optimal power flow problem
//
//	min  Σ costᵢ(Pgᵢ)
//	s.t. power balance at every bus (real and reactive),
//	     reference angle fixed,
//	     |Sf|², |St|² within branch ratings,
//	     Vm, Pg, Qg within their limits,
//
// over x = [Va; Vm; Pg; Qg] and solves it with the MIPS primal–dual
// interior-point solver. The warm-start path accepts predicted
// (X, λ, µ, Z) — the Smart-PGSim acceleration interface.
//
// A Prepare'd instance is immutable during Solve, and instances derived
// from it with Perturb or a Rebind* share its assembled structure without
// sharing mutable solve state. Both properties are load-bearing for the
// batch sweeps and the serving daemon, which solve many derived
// instances of one base grid concurrently.
package opf

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mips"
	"repro/internal/sparse"
)

// Layout describes the variable and constraint packing of an OPF instance.
// Every instance derived from a Prepare'd one — Perturb, every Rebind*
// and their compositions — keeps its layout, so a start in the base
// grid's terms fits each of them.
type Layout struct {
	NB, NG  int // buses, generators in service at Prepare (the units)
	NLRated int // in-service branches with finite RateA at Prepare
	NX      int // 2*NB + 2*NG
	NEq     int // 2*NB + 1 (paper's #λ)
	NIq     int // 2*NLRated + finite bounds (paper's #µ)

	VaOff, VmOff, PgOff, QgOff int // offsets into x
}

// Fits reports whether a Start laid out for m has exactly the vector
// lengths l requires — the test every warm-start consumer applies before
// handing a prediction to an instance.
func (l Layout) Fits(m Layout) bool {
	return l.NX == m.NX && l.NEq == m.NEq && l.NIq == m.NIq
}

// Start is a warm-start point in problem coordinates (the layout of X, λ,
// µ and Z produced by Result and predicted by the MTL model).
type Start struct {
	X   la.Vector // len NX
	Lam la.Vector // len NEq
	Mu  la.Vector // len NIq
	Z   la.Vector // len NIq
}

// Result is a solved (or failed) AC-OPF.
type Result struct {
	Converged  bool
	Iterations int
	Cost       float64   // objective, $/hr
	Va         la.Vector // radians, per bus
	Vm         la.Vector // pu, per bus
	Pg, Qg     la.Vector // MW / MVAr, per unit; 0 for a unit an outage dropped

	X   la.Vector // raw optimization vector
	Lam la.Vector // equality multipliers [λP; λQ; λref]
	Mu  la.Vector // inequality multipliers (flows then bounds)
	Z   la.Vector // slack variables

	PrepTime  time.Duration // problem construction
	SolveTime time.Duration // interior-point iterations
	Trace     []mips.IterStat

	// InertiaCorrections counts the KKT refactorizations beyond one per
	// iteration (mips.Result).
	InertiaCorrections int
}

// OPF is a prepared AC-OPF instance, reusable across solves with
// different starts.
type OPF struct {
	Case   *grid.Case
	Y      *grid.YMatrices
	Lay    Layout
	ratedY *grid.YMatrices // admittances restricted to rated branches
	rates2 la.Vector       // squared pu ratings per rated branch
	gbus   []int           // bus index per unit
	gens   []grid.Gen
	// rated and units name the Case.Branches entry of every rated row (flow
	// rows l and NLRated+l) and the Case.Gens entry of every unit (Pg/Qg
	// column g); outRows and outUnits are the ones this instance's outages
	// decoupled instead of deleting (RebindOutage, RebindGenOutage), and
	// decRows and decZ the inequality rows that leaves decoupled, ascending,
	// with their slacks at AdaptStart's start (decouple).
	rated, units, outRows, outUnits, decRows []int
	decZ                                     la.Vector
	xmin                                     la.Vector
	xmax                                     la.Vector
	refIdx                                   int
	refVa                                    float64
	prep                                     time.Duration
	// kkt caches the analysis of the KKT pattern — fill-reducing
	// ordering and LDLᵀ elimination structure — which is a property of the
	// grid structure, not of the loads, the bound values or the outages:
	// every instance derived with Perturb/RebindRamp shares it, and every
	// RebindOutage/RebindGenOutage class derives from it, so the first
	// solve of a grid or of any of its contingencies analyzes — once,
	// however many race — and every later solve of any load variant or
	// contingency — a whole sweep,
	// the entire warm-start pipeline, all requests for the grid in the
	// serving daemon — goes straight to numeric refactorization. Both
	// halves are pure functions of the pattern, so derived instances may
	// be solved in parallel with bit-identical results regardless of
	// order.
	kkt *sparse.SymbolicCache
	// prog holds the evaluation program of the grid's Jacobian and
	// Hessian patterns (eval.go), compiled on the first evaluation of any
	// instance sharing it: every derivation keeps the intact patterns.
	prog *programCell
}

// Prepare builds the admittance matrices, bounds and constraint layout
// for the case.
func Prepare(c *grid.Case) *OPF {
	t0 := time.Now()
	nb := c.NB()
	gens := c.ActiveGens()
	ng := len(gens)
	y := grid.MakeYbus(c)
	var units []int
	for g, gen := range c.Gens {
		if gen.Status {
			units = append(units, g)
		}
	}

	// Rated-branch subset.
	var fIdx, tIdx, rated []int
	ratedYf := &grid.BranchMat{NB: nb}
	ratedYt := &grid.BranchMat{NB: nb}
	var rates2 la.Vector
	l := -1 // position among the in-service branches: the Yf/Yt row
	for b, br := range c.Branches {
		if !br.Status {
			continue
		}
		l++
		if br.RateA <= 0 {
			continue
		}
		rated = append(rated, b)
		fIdx = append(fIdx, y.FIdx[l])
		tIdx = append(tIdx, y.TIdx[l])
		ratedYf.F = append(ratedYf.F, y.Yf.F[l])
		ratedYf.T = append(ratedYf.T, y.Yf.T[l])
		ratedYf.Vf = append(ratedYf.Vf, y.Yf.Vf[l])
		ratedYf.Vt = append(ratedYf.Vt, y.Yf.Vt[l])
		ratedYt.F = append(ratedYt.F, y.Yt.F[l])
		ratedYt.T = append(ratedYt.T, y.Yt.T[l])
		ratedYt.Vf = append(ratedYt.Vf, y.Yt.Vf[l])
		ratedYt.Vt = append(ratedYt.Vt, y.Yt.Vt[l])
		r := br.RateA / c.BaseMVA
		rates2 = append(rates2, r*r)
	}
	nlr := len(rates2)

	lay := Layout{
		NB: nb, NG: ng, NLRated: nlr,
		NX:    2*nb + 2*ng,
		NEq:   2*nb + 1,
		VaOff: 0, VmOff: nb, PgOff: 2 * nb, QgOff: 2*nb + ng,
	}
	xmin := make(la.Vector, lay.NX)
	xmax := make(la.Vector, lay.NX)
	for i := 0; i < nb; i++ {
		xmin[lay.VaOff+i] = math.Inf(-1)
		xmax[lay.VaOff+i] = math.Inf(1)
		xmin[lay.VmOff+i] = c.Buses[i].Vmin
		xmax[lay.VmOff+i] = c.Buses[i].Vmax
	}
	for g := 0; g < ng; g++ {
		xmin[lay.PgOff+g] = gens[g].Pmin / c.BaseMVA
		xmax[lay.PgOff+g] = gens[g].Pmax / c.BaseMVA
		xmin[lay.QgOff+g] = gens[g].Qmin / c.BaseMVA
		xmax[lay.QgOff+g] = gens[g].Qmax / c.BaseMVA
	}
	lay.NIq = 2*nlr + finite(xmax, 1) + finite(xmin, -1)

	o := &OPF{
		Case: c, Y: y, Lay: lay,
		ratedY: &grid.YMatrices{Ybus: y.Ybus, Yf: ratedYf, Yt: ratedYt, FIdx: fIdx, TIdx: tIdx},
		rates2: rates2,
		gbus:   grid.GenBusIdx(c),
		gens:   gens,
		rated:  rated,
		units:  units,
		xmin:   xmin, xmax: xmax,
		refIdx: c.RefIndex(),
		refVa:  grid.Deg2Rad(c.Buses[c.RefIndex()].Va),
		prog:   new(programCell),
	}
	// Every KKT system is analyzed under exact minimum degree, the
	// textbook choice for a quasi-definite matrix (Vanderbei 1995) and
	// the measured one — on the reduced KKT patterns MIPS factors its
	// nnz(L)+n is 0.79–0.88× RCM's up to case30 and 0.60/0.65/0.45/0.22×
	// of it on case57/118/300/1354, with fewer flops on every system
	// (TestKKTOrderingFill, RESULTS.md).
	o.kkt = sparse.NewSymbolicCache()
	o.prep = time.Since(t0)
	return o
}

// Ordering reports the KKT fill-reducing ordering of every analysis:
// sparse.OrderMinDegree.
func (o *OPF) Ordering() sparse.Ordering { return sparse.OrderMinDegree }

// KKTSymbolic returns the symbolic analysis this instance's KKT systems
// are factored on — the production fill — or nil before its first solve.
func (o *OPF) KKTSymbolic() *sparse.LDLSymbolic { return o.kkt.Symbolic() }

// KKTStats reports the KKT reuse counters for this grid, aggregated over
// every solve of this instance and the derivations sharing its cache: how
// many fill-reducing orderings were computed, and how many symbolic
// analyses, numeric factorizations and rejected (numerically singular)
// factorizations the solves' KKT factorizations counted. An outage class
// from RebindOutage or RebindGenOutage counts its own solves' work —
// zero orderings and zero analyses — while the one analysis of
// the intact pattern it factors on is counted on the instance it was
// derived from, whichever solve made it.
func (o *OPF) KKTStats() sparse.CacheStats { return o.kkt.Stats() }

// finite counts the entries of v other than sign·∞: the finite bounds of
// a bound vector (sign 1 for upper, -1 for lower), each a linear
// inequality row MIPS appends after the flow rows.
func finite(v la.Vector, sign int) int {
	n := 0
	for _, x := range v {
		if !math.IsInf(x, sign) {
			n++
		}
	}
	return n
}

// RebindOutage derives a prepared OPF for the single-branch-outage
// variant of the bound case: branch (an index into Case.Branches) is
// taken out of service, as a value edit on o's problem. The admittance
// matrices are delta'd with grid.YMatrices.DropBranch — every value a
// rebuild's, the outaged Ybus entries kept as explicit zeros — and a
// rated branch keeps its two flow rows with zero admittances: the
// constant h = −rate², strictly inactive, with stored-zero derivatives.
// So the instance has o's layout and KKT pattern and factors on o's
// analysis (sparse.SymbolicCache.Derive): no ordering and no analysis per
// outage or chain of outages (N-2). The counters are the class's own
// (KKTStats), shared by its Perturb derivations. AdaptStart fits a start
// for o to the outage.
func (o *OPF) RebindOutage(branch int) (*OPF, error) {
	t0 := time.Now()
	if branch < 0 || branch >= len(o.Case.Branches) {
		return nil, fmt.Errorf("opf: outage branch %d outside %d branches of %s", branch, len(o.Case.Branches), o.Case.Name)
	}
	if !o.Case.Branches[branch].Status {
		return nil, fmt.Errorf("opf: outage branch %d of %s is already out of service", branch, o.Case.Name)
	}
	ai := 0 // position of branch within ActiveBranches: the Yf/Yt row
	for _, br := range o.Case.Branches[:branch] {
		if br.Status {
			ai++
		}
	}
	y := o.Y.DropBranch(o.Case, ai)
	cp := *o
	cp.Case = o.Case.WithoutBranch(branch)
	cp.Y = y
	ry := *o.ratedY
	ry.Ybus = y.Ybus
	if rl := slices.Index(o.rated, branch); rl >= 0 {
		ry.Yf, ry.Yt = zeroRow(o.ratedY.Yf, rl), zeroRow(o.ratedY.Yt, rl)
		cp.outRows = append(slices.Clip(o.outRows), rl)
		cp.decouple()
	}
	cp.ratedY = &ry
	cp.kkt = o.kkt.Derive()
	cp.prep = time.Since(t0)
	return &cp, nil
}

// zeroRow returns a copy of m whose row l keeps its buses and stores zero
// admittances.
func zeroRow(m *grid.BranchMat, l int) *grid.BranchMat {
	cp := *m
	cp.Vf, cp.Vt = slices.Clone(m.Vf), slices.Clone(m.Vt)
	cp.Vf[l], cp.Vt[l] = 0, 0
	return &cp
}

// RebindGenOutage derives a prepared OPF for the generator-outage
// variant of the bound case: generator gen (an index into Case.Gens) is
// taken out of service, as a value edit on o's problem like RebindOutage.
// The unit keeps its Pg/Qg columns and bounds, but its cost is zero and
// its injection leaves the power balance, whose Jacobian entries for it
// are stored zeros: the variables float, decoupled, inside their bounds,
// and Result reports the unit's dispatch as 0. The layout and KKT pattern
// are o's, and so is the analysis the instance factors on.
func (o *OPF) RebindGenOutage(gen int) (*OPF, error) {
	t0 := time.Now()
	if gen < 0 || gen >= len(o.Case.Gens) {
		return nil, fmt.Errorf("opf: outage generator %d outside %d generators of %s", gen, len(o.Case.Gens), o.Case.Name)
	}
	if !o.Case.Gens[gen].Status {
		return nil, fmt.Errorf("opf: outage generator %d of %s is already out of service", gen, o.Case.Name)
	}
	cp := *o
	cp.Case = o.Case.WithoutGen(gen)
	cp.outUnits = append(slices.Clip(o.outUnits), slices.Index(o.units, gen))
	cp.decouple()
	cp.kkt = o.kkt.Derive()
	cp.prep = time.Since(t0)
	return &cp, nil
}

// on is unit g's in-service weight: 1, or 0 once RebindGenOutage dropped
// it — the factor of the unit's cost, its injection and their derivatives.
func (o *OPF) on(g int) float64 {
	if slices.Contains(o.outUnits, g) {
		return 0
	}
	return 1
}

// Perturb derives the OPF of a load-scaled variant of the bound case in
// one step: clone the case, scale its loads, and bind the copy to o's
// prepared structure — admittance matrices, rated-branch subset, bounds,
// layout, reference data and KKT cache — instead of rebuilding them.
// That is valid because loads enter the problem solely through
// MakeSbus, which reads the bound case at solve time, and it is what
// lets a batch sweep amortize one Prepare across thousands of
// perturbations of the same base grid; the returned instance shares no
// mutable solve state with o and both may be solved concurrently. Its
// PrepTime is the full derivation cost — the real per-problem
// construction work once the base structure is amortized across a sweep
// (much smaller than a fresh Prepare, which the runtime-breakdown
// figures should reflect).
func (o *OPF) Perturb(factors []float64) *OPF {
	t0 := time.Now()
	cc := o.Case.Clone()
	cc.ScaleLoads(factors)
	cp := *o
	cp.Case = cc
	cp.prep = time.Since(t0)
	return &cp
}

// DefaultStart returns the Matpower-style interior starting point: bounded
// variables at the midpoint of their range and every angle at the
// reference angle.
func (o *OPF) DefaultStart() la.Vector {
	x := make(la.Vector, o.Lay.NX)
	for i := range x {
		x[i] = o.interior(i)
	}
	for i := 0; i < o.Lay.NB; i++ {
		x[o.Lay.VaOff+i] = o.refVa
	}
	return x
}

// interior is DefaultStart's value of a variable that is not an angle.
func (o *OPF) interior(i int) float64 {
	lo, hi := o.xmin[i], o.xmax[i]
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}

// Options re-exports the MIPS options for OPF callers.
type Options = mips.Options

// Solve runs the interior-point method from the given start (nil for the
// default cold start). The returned error wraps mips failures; the Result
// always reports iterations and timing. Solves factor their KKT systems
// through opt.KKT when set, else through the instance's cache, on which
// racing first solves share one analysis.
func (o *OPF) Solve(start *Start, opt Options) (*Result, error) {
	if opt.KKT == nil {
		opt.KKT = o.kkt
	}
	sc := evalPool.Get().(*evalScratch)
	defer evalPool.Put(sc)
	p := o.problemWith(sc)
	var ws *mips.WarmStart
	if start != nil {
		ws = &mips.WarmStart{X: start.X, Lam: start.Lam, Mu: start.Mu, Z: start.Z}
	}
	t0 := time.Now()
	mr, err := mips.Solve(p, o.DefaultStart(), ws, opt)
	solveTime := time.Since(t0)
	res := o.extract(mr)
	res.PrepTime = o.prep
	res.SolveTime = solveTime
	if err != nil {
		return res, fmt.Errorf("opf: %s: %w", o.Case.Name, err)
	}
	return res, nil
}

func (o *OPF) extract(mr *mips.Result) *Result {
	lay := o.Lay
	res := &Result{
		Converged:  mr.Converged,
		Iterations: mr.Iterations,
		Cost:       mr.F,
		X:          mr.X,
		Lam:        mr.Lam,
		Mu:         mr.Mu,
		Z:          mr.Z,
		Trace:      mr.Trace,
		Va:         mr.X[lay.VaOff : lay.VaOff+lay.NB].Clone(),
		Vm:         mr.X[lay.VmOff : lay.VmOff+lay.NB].Clone(),

		InertiaCorrections: mr.InertiaCorrections,
	}
	res.Pg = make(la.Vector, lay.NG)
	res.Qg = make(la.Vector, lay.NG)
	for g := 0; g < lay.NG; g++ {
		if o.on(g) != 0 {
			res.Pg[g] = mr.X[lay.PgOff+g] * o.Case.BaseMVA
			res.Qg[g] = mr.X[lay.QgOff+g] * o.Case.BaseMVA
		}
	}
	return res
}

// Cost evaluates the generation cost of a raw x vector in $/hr.
func (o *OPF) Cost(x la.Vector) float64 {
	f, _ := o.costGrad(x)
	return f
}

func (o *OPF) costGrad(x la.Vector) (float64, la.Vector) {
	lay := o.Lay
	base := o.Case.BaseMVA
	f := 0.0
	df := make(la.Vector, lay.NX)
	for g, gen := range o.gens {
		pmw := x[lay.PgOff+g] * base
		f += o.on(g) * gen.Cost.Eval(pmw)
		df[lay.PgOff+g] = o.on(g) * gen.Cost.Deriv(pmw) * base
	}
	return f, df
}

// Problem returns the mips problem description Solve hands to the
// interior-point solver, backed by a private evaluation scratch (not
// the shared pool, so callers may hold it as long as they like). It is
// the seam the solver's allocation harness drives Steppers through.
func (o *OPF) Problem() *mips.Problem {
	return o.problemWith(new(evalScratch))
}

func (o *OPF) voltages(x la.Vector) []complex128 {
	lay := o.Lay
	return grid.Voltage(x[lay.VmOff:lay.VmOff+lay.NB], x[lay.VaOff:lay.VaOff+lay.NB])
}

// equality builds [Re(mis); Im(mis); Va_ref − Va0] and its Jacobian.
func (o *OPF) equality(x la.Vector, wantJac bool) (la.Vector, *sparse.CSC) {
	lay := o.Lay
	nb := lay.NB
	v := o.voltages(x)
	sbus := make([]complex128, nb)
	o.injections(sbus, x)
	mis := grid.PowerMismatch(o.Y, v, sbus)
	g := make(la.Vector, lay.NEq)
	for i := 0; i < nb; i++ {
		g[i] = real(mis[i])
		g[nb+i] = imag(mis[i])
	}
	g[2*nb] = x[lay.VaOff+o.refIdx] - o.refVa
	if !wantJac {
		return g, nil
	}
	dVa, dVm := grid.DSbusDV(o.Y.Ybus, v)
	jb := sparse.NewBuilder(lay.NEq, lay.NX)
	appendComplexBlock(jb, dVa, 0, lay.VaOff, nb)
	appendComplexBlock(jb, dVm, 0, lay.VmOff, nb)
	for gi, b := range o.gbus {
		jb.Append(b, lay.PgOff+gi, -o.on(gi))    // dRe(mis)/dPg
		jb.Append(nb+b, lay.QgOff+gi, -o.on(gi)) // dIm(mis)/dQg
	}
	jb.Append(2*nb, lay.VaOff+o.refIdx, 1) // reference angle row
	return g, jb.ToCSC()
}

// appendComplexBlock writes Re(m) rows at rowOff and Im(m) rows at
// rowOff+nb into the builder, at column offset colOff.
func appendComplexBlock(jb *sparse.Builder, m *sparse.CSCComplex, rowOff, colOff, nb int) {
	for j := 0; j < m.NCols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i := m.RowIdx[p]
			jb.Append(rowOff+i, colOff+j, real(m.Val[p]))
			jb.Append(rowOff+nb+i, colOff+j, imag(m.Val[p]))
		}
	}
}

// inequality builds [|Sf|²−rate²; |St|²−rate²] over rated branches.
func (o *OPF) inequality(x la.Vector, wantJac bool) (la.Vector, *sparse.CSC) {
	lay := o.Lay
	nlr := lay.NLRated
	if nlr == 0 {
		return nil, nil
	}
	v := o.voltages(x)
	if !wantJac {
		sf, st := grid.BranchFlows(o.ratedY, v)
		return o.flowViolations(sf, st), nil
	}
	dSfVa, dSfVm, dStVa, dStVm, sf, st := grid.DSbrDV(o.ratedY, v)
	h := o.flowViolations(sf, st)
	dAfVa, dAfVm := grid.DAbrDV(dSfVa, dSfVm, sf)
	dAtVa, dAtVm := grid.DAbrDV(dStVa, dStVm, st)
	jb := sparse.NewBuilder(2*nlr, lay.NX)
	appendBranchReal(jb, dAfVa, 0, lay.VaOff)
	appendBranchReal(jb, dAfVm, 0, lay.VmOff)
	appendBranchReal(jb, dAtVa, nlr, lay.VaOff)
	appendBranchReal(jb, dAtVm, nlr, lay.VmOff)
	return h, jb.ToCSC()
}

func (o *OPF) flowViolations(sf, st []complex128) la.Vector {
	nlr := o.Lay.NLRated
	h := make(la.Vector, 2*nlr)
	for l := 0; l < nlr; l++ {
		pf, qf := real(sf[l]), imag(sf[l])
		pt, qt := real(st[l]), imag(st[l])
		h[l] = pf*pf + qf*qf - o.rates2[l]
		h[nlr+l] = pt*pt + qt*qt - o.rates2[l]
	}
	return h
}

func appendBranchReal(jb *sparse.Builder, m *grid.BranchMatReal, rowOff, colOff int) {
	for l := range m.F {
		jb.Append(rowOff+l, colOff+m.F[l], m.Vf[l])
		jb.Append(rowOff+l, colOff+m.T[l], m.Vt[l])
	}
}

// Equality exposes g(x) and its Jacobian for external consumers (the
// physics-informed training losses differentiate through it).
func (o *OPF) Equality(x la.Vector) (la.Vector, *sparse.CSC) {
	return o.equality(x, true)
}

// Inequality exposes the nonlinear h(x) rows (branch flows) and Jacobian.
func (o *OPF) Inequality(x la.Vector) (la.Vector, *sparse.CSC) {
	return o.inequality(x, true)
}

// CostGrad exposes the objective and its gradient.
func (o *OPF) CostGrad(x la.Vector) (float64, la.Vector) {
	return o.costGrad(x)
}

// Bounds returns copies of the variable bounds.
func (o *OPF) Bounds() (xmin, xmax la.Vector) {
	return o.xmin.Clone(), o.xmax.Clone()
}

// FullInequality evaluates the complete inequality set in MIPS order —
// nonlinear flow rows, then finite upper-bound rows, then finite
// lower-bound rows — matching the layout of the µ and Z vectors in
// Result. The Jacobian covers the same rows.
func (o *OPF) FullInequality(x la.Vector) (la.Vector, *sparse.CSC) {
	h, jh := o.inequality(x, true)
	nh := len(h)
	full := make(la.Vector, o.Lay.NIq)
	copy(full, h)
	jb := sparse.NewBuilder(o.Lay.NIq, o.Lay.NX)
	if jh != nil {
		jb.AppendCSC(0, 0, 1, jh)
	}
	row := nh
	for i := range o.xmax {
		if !math.IsInf(o.xmax[i], 1) {
			full[row] = x[i] - o.xmax[i]
			jb.Append(row, i, 1)
			row++
		}
	}
	for i := range o.xmin {
		if !math.IsInf(o.xmin[i], -1) {
			full[row] = o.xmin[i] - x[i]
			jb.Append(row, i, -1)
			row++
		}
	}
	return full, jb.ToCSC()
}
