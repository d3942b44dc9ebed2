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
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mips"
	"repro/internal/sparse"
)

// Layout describes the variable and constraint packing of an OPF instance.
type Layout struct {
	NB, NG  int // buses, in-service generators
	NLRated int // branches with finite RateA
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
	Pg, Qg     la.Vector // MW / MVAr, per in-service generator

	X   la.Vector // raw optimization vector
	Lam la.Vector // equality multipliers [λP; λQ; λref]
	Mu  la.Vector // inequality multipliers (flows then bounds)
	Z   la.Vector // slack variables

	PrepTime  time.Duration // problem construction
	SolveTime time.Duration // interior-point iterations
	Trace     []mips.IterStat
}

// OPF is a prepared AC-OPF instance, reusable across solves with
// different starts.
type OPF struct {
	Case   *grid.Case
	Y      *grid.YMatrices
	Lay    Layout
	ratedY *grid.YMatrices // admittances restricted to rated branches
	rates2 la.Vector       // squared pu ratings per rated branch
	gbus   []int           // bus index per in-service generator
	gens   []grid.Gen
	xmin   la.Vector
	xmax   la.Vector
	refIdx int
	refVa  float64
	prep   time.Duration
	// kkt caches the analysis of the KKT pattern — fill-reducing
	// ordering and pivot-shaped symbolic — which is a property of the
	// grid structure, not of the loads or of the bound values: every
	// instance derived with Perturb/RebindRamp shares it, so the first
	// solve of a grid analyzes and every later solve of any load variant
	// — a whole sweep, the entire warm-start pipeline, all requests for
	// the grid in the serving daemon — goes straight to numeric
	// refactorization. Both halves are pure functions of the pattern, so
	// derived instances may be solved in parallel with bit-identical
	// results regardless of order.
	kkt *sparse.SymbolicCache
	// kktFirst runs the first solve on kkt — the one that publishes the
	// analysis — alone: made with the cache and shared with it, so solves
	// racing on an empty cache wait for one analysis instead of each
	// making their own, and the counters do not depend on worker count.
	kktFirst *sync.Once
	// kktRoot is the instance kkt was derived from (RebindOutage): its
	// cache holds the analysis this instance's KKT systems are factored
	// on, so Solve makes sure it is there first. Nil on an instance whose
	// cache is its own.
	kktRoot *OPF
}

// Prepare builds the admittance matrices, bounds and constraint layout
// for the case.
func Prepare(c *grid.Case) *OPF {
	t0 := time.Now()
	nb := c.NB()
	gens := c.ActiveGens()
	ng := len(gens)
	y := grid.MakeYbus(c)

	// Rated-branch subset.
	var fIdx, tIdx []int
	ratedYf := &grid.BranchMat{NB: nb}
	ratedYt := &grid.BranchMat{NB: nb}
	var rates2 la.Vector
	branches := c.ActiveBranches()
	for l, br := range branches {
		if br.RateA <= 0 {
			continue
		}
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
	lay.NIq = 2*nlr + finiteBounds(xmin, xmax)

	o := &OPF{
		Case: c, Y: y, Lay: lay,
		ratedY: &grid.YMatrices{Ybus: y.Ybus, Yf: ratedYf, Yt: ratedYt, FIdx: fIdx, TIdx: tIdx},
		rates2: rates2,
		gbus:   grid.GenBusIdx(c),
		gens:   gens,
		xmin:   xmin, xmax: xmax,
		refIdx: c.RefIndex(),
		refVa:  grid.Deg2Rad(c.Buses[c.RefIndex()].Va),
	}
	// One ordering for every KKT system: minimum degree, the textbook
	// choice for a quasi-definite matrix (Vanderbei 1995) and the measured
	// one — on the reduced KKT patterns MIPS factors AMD's L+U is
	// 0.84–1.04× RCM's up to case30 and 0.71/0.90/0.53/0.31× of it on
	// case57/118/300/1354 (TestKKTOrderingFill, RESULTS.md).
	o.SetOrdering(sparse.OrderAMD)
	o.prep = time.Since(t0)
	return o
}

// SetOrdering gives the instance a fresh, empty KKT cache of its own
// analyzing under the given fill-reducing ordering — the one place this
// package makes an underived cache: Prepare calls it with AMD,
// RebindGenOutage with its parent's ordering, and the ordering-independence
// and private-analysis tests with another. Call it on the base instance
// before deriving with Perturb or RebindOutage so the derived instances
// share, or derive from, the new cache; the old analysis and counters are
// discarded. On an instance from RebindOutage it cuts the tie to the
// parent's analysis: the outage pattern is then ordered and analyzed
// privately, which the containment tests compare against.
func (o *OPF) SetOrdering(ord sparse.Ordering) {
	o.kkt = sparse.NewSymbolicCache(ord)
	o.kktFirst = new(sync.Once)
	o.kktRoot = nil
}

// Ordering reports the KKT fill-reducing ordering this instance (and
// every derivation sharing its cache) analyzes with: sparse.OrderAMD
// unless a test's SetOrdering replaced it.
func (o *OPF) Ordering() sparse.Ordering { return o.kkt.Ordering() }

// KKTSymbolic returns the symbolic analysis this instance's KKT systems
// are factored on — the production fill — or nil before its first solve.
func (o *OPF) KKTSymbolic() *sparse.Symbolic { return o.kkt.Symbolic() }

// KKTStats reports the KKT reuse counters for this grid, aggregated over
// every solve of this instance and the derivations sharing its cache: how
// many fill-reducing orderings were computed, and how many full symbolic
// analyses, numeric refactorizations and stability fallbacks the solves'
// KKT factorizations performed. An outage class from RebindOutage counts
// for itself — zero orderings and analyses while its pattern sits inside
// its parent's — and adds nothing to the parent's counters.
func (o *OPF) KKTStats() sparse.CacheStats { return o.kkt.Stats() }

// finiteBounds counts the finite entries of the two bound vectors — the
// linear inequality rows MIPS appends after the flow rows.
func finiteBounds(xmin, xmax la.Vector) int {
	n := 0
	for i := range xmin {
		if !math.IsInf(xmin[i], -1) {
			n++
		}
		if !math.IsInf(xmax[i], 1) {
			n++
		}
	}
	return n
}

// RebindOutage derives a prepared OPF for the single-branch-outage
// variant of the bound case: branch (an index into Case.Branches) is
// taken out of service. The admittance matrices are delta'd with
// grid.YMatrices.DropBranch — bit-identical to rebuilding them on the
// outaged case — and everything the outage cannot touch (bounds,
// generator data, reference bus, variable layout) is shared with o. If
// the branch is rated, its two flow rows leave the inequality layout
// (NIq shrinks by 2); warm starts predicted in o's layout then need
// ProjectionTo. The derived instance keeps o's KKT analysis: MIPS
// factors the reduced KKT system of dimension NX + NEq, which a branch
// outage leaves alone, so the outage pattern is o's with a few entries
// gone and its systems are factored on o's symbolic analysis with those
// entries as explicit zeros (sparse.SymbolicCache.Derive) — no ordering
// and no analysis per outage, and a chain of outages (N-2) resolves to
// the same analysis. The counters are the class's own (KKTStats), shared
// by all its Perturb derivations; a pattern that does not embed is
// analyzed privately under o's ordering, as before.
func (o *OPF) RebindOutage(branch int) (*OPF, error) {
	t0 := time.Now()
	if branch < 0 || branch >= len(o.Case.Branches) {
		return nil, fmt.Errorf("opf: outage branch %d outside %d branches of %s", branch, len(o.Case.Branches), o.Case.Name)
	}
	if !o.Case.Branches[branch].Status {
		return nil, fmt.Errorf("opf: outage branch %d of %s is already out of service", branch, o.Case.Name)
	}
	// Positions of branch within ActiveBranches (the Yf/Yt rows) and
	// within the rated subset (its |Sf|² flow row).
	ai, rl := 0, 0
	for _, br := range o.Case.Branches[:branch] {
		if br.Status {
			ai++
			if br.RateA > 0 {
				rl++
			}
		}
	}
	y := o.Y.DropBranch(o.Case, ai)
	cp := *o
	cp.Case = o.Case.WithoutBranch(branch)
	cp.Y = y
	if o.Case.Branches[branch].RateA > 0 {
		cp.ratedY = &grid.YMatrices{
			Ybus: y.Ybus,
			Yf:   o.ratedY.Yf.WithoutRow(rl), Yt: o.ratedY.Yt.WithoutRow(rl),
			FIdx: slices.Delete(slices.Clone(o.ratedY.FIdx), rl, rl+1),
			TIdx: slices.Delete(slices.Clone(o.ratedY.TIdx), rl, rl+1),
		}
		cp.rates2 = slices.Delete(slices.Clone(o.rates2), rl, rl+1)
		cp.Lay.NLRated--
		cp.Lay.NIq -= 2
	} else {
		rc := *o.ratedY
		rc.Ybus = y.Ybus
		cp.ratedY = &rc
	}
	cp.kkt = o.kkt.Derive()
	if o.kktRoot == nil {
		cp.kktRoot = o
	}
	cp.prep = time.Since(t0)
	return &cp, nil
}

// RebindGenOutage derives a prepared OPF for the generator-outage
// variant of the bound case: generator gen (an index into Case.Gens) is
// taken out of service. The admittance matrices are untouched — a
// generator enters the problem only through MakeSbus and the variable
// layout — so Y and the rated-branch subset are shared with o, while
// the packed layout loses the generator's Pg and Qg variables (NG−1,
// NX−2) and their finite-bound inequality rows. Warm starts predicted
// in o's layout need ProjectionTo, which also performs the screening
// redispatch. The derived instance gets its own KKT cache under o's
// ordering: its KKT pattern loses two columns, so cannot sit inside o's.
func (o *OPF) RebindGenOutage(gen int) (*OPF, error) {
	t0 := time.Now()
	if gen < 0 || gen >= len(o.Case.Gens) {
		return nil, fmt.Errorf("opf: outage generator %d outside %d generators of %s", gen, len(o.Case.Gens), o.Case.Name)
	}
	if !o.Case.Gens[gen].Status {
		return nil, fmt.Errorf("opf: outage generator %d of %s is already out of service", gen, o.Case.Name)
	}
	gi := 0 // position of gen within ActiveGens (the Pg/Qg variable blocks)
	for i := 0; i < gen; i++ {
		if o.Case.Gens[i].Status {
			gi++
		}
	}
	lay := o.Lay
	// Delete the Qg entry first (the higher index), then the Pg entry, so
	// the earlier offset stays valid.
	dropVar := func(v la.Vector) la.Vector {
		out := slices.Delete(slices.Clone(v), lay.QgOff+gi, lay.QgOff+gi+1)
		return slices.Delete(out, lay.PgOff+gi, lay.PgOff+gi+1)
	}
	cp := *o
	cp.Case = o.Case.WithoutGen(gen)
	cp.gens = slices.Delete(slices.Clone(o.gens), gi, gi+1)
	cp.gbus = slices.Delete(slices.Clone(o.gbus), gi, gi+1)
	cp.xmin = dropVar(o.xmin)
	cp.xmax = dropVar(o.xmax)
	cp.Lay.NG = lay.NG - 1
	cp.Lay.NX = lay.NX - 2
	cp.Lay.QgOff = lay.QgOff - 1
	cp.Lay.NIq = 2*lay.NLRated + finiteBounds(cp.xmin, cp.xmax)
	cp.SetOrdering(o.Ordering())
	cp.prep = time.Since(t0)
	return &cp, nil
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
		lo, hi := o.xmin[i], o.xmax[i]
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			x[i] = 0
		case math.IsInf(lo, -1):
			x[i] = hi
		case math.IsInf(hi, 1):
			x[i] = lo
		default:
			x[i] = (lo + hi) / 2
		}
	}
	for i := 0; i < o.Lay.NB; i++ {
		x[o.Lay.VaOff+i] = o.refVa
	}
	return x
}

// Options re-exports the MIPS options for OPF callers.
type Options = mips.Options

// Solve runs the interior-point method from the given start (nil for the
// default cold start). The returned error wraps mips failures; the Result
// always reports iterations and timing. The first solve on the
// instance's KKT cache runs alone (solves arriving meanwhile wait for the
// analysis it publishes); every later one runs freely in parallel.
func (o *OPF) Solve(start *Start, opt Options) (res *Result, err error) {
	if opt.KKT != nil {
		return o.solve(start, opt)
	}
	opt.KKT = o.kkt
	if r := o.kktRoot; r != nil {
		// Root first: a derived cache analyzes privately while its root
		// holds nothing, so result bits would depend on whether the intact
		// system happened to be solved before its outages. Unless a solve
		// of the root already has, one iteration from its default start
		// publishes its analysis, a function of its pattern alone
		// (ErrMaxIter is the expected outcome, not a failure).
		r.kktFirst.Do(func() { _, _ = r.solve(nil, Options{MaxIter: 1, KKT: r.kkt}) })
		return o.solve(start, opt)
	}
	first := false
	o.kktFirst.Do(func() { first = true; res, err = o.solve(start, opt) })
	if first {
		return res, err
	}
	return o.solve(start, opt)
}

// solve is Solve on the cache opt.KKT names.
func (o *OPF) solve(start *Start, opt Options) (*Result, error) {
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
	}
	res.Pg = make(la.Vector, lay.NG)
	res.Qg = make(la.Vector, lay.NG)
	for g := 0; g < lay.NG; g++ {
		res.Pg[g] = mr.X[lay.PgOff+g] * o.Case.BaseMVA
		res.Qg[g] = mr.X[lay.QgOff+g] * o.Case.BaseMVA
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
		f += gen.Cost.Eval(pmw)
		df[lay.PgOff+g] = gen.Cost.Deriv(pmw) * base
	}
	return f, df
}

// Constraints evaluates g(x) and h(x) (nonlinear rows only) at x — used
// by tests and by the physics-informed losses.
func (o *OPF) Constraints(x la.Vector) (g, h la.Vector) {
	g, _ = o.equality(x, false)
	h, _ = o.inequality(x, false)
	return g, h
}

// Problem returns the mips problem description Solve hands to the
// interior-point solver, backed by a private evaluation scratch (not
// the shared pool, so callers may hold it as long as they like). It is
// the seam the solver's allocation harness drives Steppers through.
func (o *OPF) Problem() *mips.Problem {
	return o.problemWith(new(evalScratch))
}

// problem builds the reference evaluation path: each callback allocates
// its results from scratch using the grid-level derivative routines.
// Solve uses the entry-wise streaming path in eval.go instead; this one
// remains as the oracle the equivalence tests pin that path against.
func (o *OPF) problem() *mips.Problem {
	return &mips.Problem{
		NX: o.Lay.NX,
		F:  o.costGrad,
		G: func(x la.Vector) (la.Vector, *sparse.CSC) {
			return o.equality(x, true)
		},
		H: func(x la.Vector) (la.Vector, *sparse.CSC) {
			if o.Lay.NLRated == 0 {
				return nil, nil
			}
			return o.inequality(x, true)
		},
		Hess: o.hessian,
		XMin: o.xmin,
		XMax: o.xmax,
	}
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
	sbus := grid.MakeSbus(o.Case, x[lay.PgOff:lay.PgOff+lay.NG], x[lay.QgOff:lay.QgOff+lay.NG])
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
		jb.Append(b, lay.PgOff+gi, -1)    // dRe(mis)/dPg
		jb.Append(nb+b, lay.QgOff+gi, -1) // dIm(mis)/dQg
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
			hb.Append(lay.PgOff+g, lay.PgOff+g, d2)
		}
	}

	// Power-balance block.
	lamP := make([]complex128, nb)
	lamQ := make([]complex128, nb)
	for i := 0; i < nb; i++ {
		lamP[i] = complex(lam[i], 0)
		lamQ[i] = complex(lam[nb+i], 0)
	}
	paa, pav, pva, pvv := grid.D2SbusDV2(o.Y.Ybus, v, lamP)
	qaa, qav, qva, qvv := grid.D2SbusDV2(o.Y.Ybus, v, lamQ)
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
		faa, fav, fva, fvv := grid.D2ASbrDV2(dSfVa, dSfVm, sf, o.ratedY.Yf, true, v, muF)
		taa, tav, tva, tvv := grid.D2ASbrDV2(dStVa, dStVm, st, o.ratedY.Yt, false, v, muT)
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
