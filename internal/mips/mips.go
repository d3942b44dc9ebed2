// Package mips is a Go port of the Matpower Interior Point Solver: a
// primal–dual interior-point method for nonlinear programs
//
//	min f(x)  s.t.  g(x) = 0,  h(x) ≤ 0,  xmin ≤ x ≤ xmax.
//
// It follows the algorithm of mips.m (Wang et al., Zimmerman &
// Murillo-Sánchez): the inequality set is slacked with Z > 0 and a
// logarithmic barrier −γ·Σ ln Z is driven to zero; each iteration solves
// one Newton KKT system and damps the primal and dual steps separately so
// Z and µ stay strictly positive. Variable bounds are folded into the
// inequality set exactly as MIPS does, so the multiplier vector µ and
// slack vector Z cover both nonlinear constraints and bounds — the
// objects the Smart-PGSim network predicts.
//
// The per-iteration Newton KKT system is the solver's hot path. Its
// sparsity pattern is fixed across all iterations of a solve, so Solve
// performs one symbolic factorization (fill-reducing ordering, pattern
// analysis, pivoting) on the first iteration and numeric-only
// refactorizations after — see sparse.SymbolicCache and DESIGN.md §7.
// The analysis is a function of the pattern alone, so Options.KKT
// extends that reuse across every solve that shares a problem
// structure; without one, Options.Ordering picks the fill-reducing
// ordering of a cache private to the solve.
package mips

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/la"
	"repro/internal/sparse"
)

// Problem defines the NLP. Jacobians are row-per-constraint (neq×nx,
// niq×nx); Hess returns the Hessian of the Lagrangian of the *nonlinear*
// parts: ∇²f + Σλᵢ∇²gᵢ + Σµᵢ∇²hᵢ (bounds are linear and excluded).
type Problem struct {
	NX int // number of variables

	// F evaluates the objective and its gradient.
	F func(x la.Vector) (f float64, df la.Vector)
	// G evaluates the nonlinear equality constraints and Jacobian
	// (may be nil when there are none).
	G func(x la.Vector) (g la.Vector, jac *sparse.CSC)
	// H evaluates the nonlinear inequality constraints h(x) ≤ 0 and
	// Jacobian (may be nil).
	H func(x la.Vector) (h la.Vector, jac *sparse.CSC)
	// Hess evaluates the Lagrangian Hessian for the given multipliers
	// (lam for G rows, mu for H rows). May be nil only if F is quadratic
	// and G/H are nil (then a finite-difference fallback is NOT provided;
	// callers must supply Hess whenever G or H is set).
	Hess func(x la.Vector, lam, mu la.Vector) *sparse.CSC

	// XMin and XMax are variable bounds; nil means unbounded. Use
	// math.Inf entries for individually unbounded variables.
	XMin, XMax la.Vector
}

// Options tunes the solver. Zero values take the MIPS defaults.
type Options struct {
	FeasTol, GradTol, CompTol, CostTol float64 // default 1e-6
	MaxIter                            int     // default 150
	Xi                                 float64 // step back-off, default 0.99995
	Sigma                              float64 // centering parameter, default 0.1
	Z0                                 float64 // initial slack scale, default 1
	Gamma0                             float64 // initial barrier; default 1 (cold start)
	RecordTrace                        bool    // keep per-iteration Trace

	// Ordering is the fill-reducing ordering of the private cache a
	// solve without KKT analyzes under (zero value sparse.OrderRCM);
	// ignored when KKT is set. To reproduce a solve on opf's shared
	// cache privately, pass (*opf.OPF).Ordering(), which is AMD.
	Ordering sparse.Ordering
	// KKT, when non-nil, is the shared analysis cache of the problem's
	// KKT pattern (see sparse.SymbolicCache): the solve consults it
	// through a per-solve handle before analyzing, so repeat solves of
	// the same pattern — the whole warm-start pipeline — skip ordering
	// and symbolic analysis entirely. Ordering and shaped pivot sequence
	// are pure functions of the sparsity pattern, a property of the
	// problem structure and not of its values, so one cache safely
	// serves all solves of load-perturbed instances of one grid —
	// concurrently and deterministically (opf threads its per-grid cache
	// through here). The solve's reuse counters are folded into the
	// cache when it finishes. Nil gives the solve a private cache, which
	// reproduces the same analysis from scratch.
	KKT *sparse.SymbolicCache
}

func (o Options) withDefaults() Options {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&o.FeasTol, 1e-6)
	def(&o.GradTol, 1e-6)
	def(&o.CompTol, 1e-6)
	def(&o.CostTol, 1e-6)
	def(&o.Xi, 0.99995)
	def(&o.Sigma, 0.1)
	def(&o.Z0, 1)
	def(&o.Gamma0, 1)
	if o.MaxIter == 0 {
		o.MaxIter = 150
	}
	return o
}

// WarmStart seeds the interior-point iteration. Any nil field falls back
// to the cold-start default. Mu and Z must cover the full inequality set
// (nonlinear h rows first, then upper-bound rows, then lower-bound rows —
// see Result.BoundLayout).
type WarmStart struct {
	X   la.Vector
	Lam la.Vector // equality multipliers
	Mu  la.Vector // inequality multipliers (> 0)
	Z   la.Vector // slacks (> 0)
}

// IterStat is one row of the convergence trace (Figure 10 of the paper).
type IterStat struct {
	Iter      int
	StepSize  float64 // |Δx|∞ of the accepted primal step
	FeasCond  float64
	GradCond  float64
	CompCond  float64
	CostCond  float64
	Gamma     float64
	Objective float64
}

// Result reports the solver outcome.
type Result struct {
	Converged  bool
	Iterations int
	X          la.Vector
	F          float64
	Lam        la.Vector // equality multipliers
	Mu         la.Vector // full inequality multipliers (h rows + bounds)
	Z          la.Vector // full slack vector
	MuUpper    la.Vector // per-variable upper-bound multipliers (len nx)
	MuLower    la.Vector // per-variable lower-bound multipliers (len nx)
	Trace      []IterStat
	// NIqNonlin is the number of nonlinear inequality rows; bound rows
	// follow in Mu/Z (upper bounds then lower bounds, finite only).
	NIqNonlin int
	// UpperIdx/LowerIdx give the variable index of each bound row.
	UpperIdx, LowerIdx []int
}

// ErrNumeric is returned when the KKT system cannot be solved.
var ErrNumeric = errors.New("mips: numerical failure in KKT solve")

// kktStaticReg is the static regularization −δ placed on the equality
// block's diagonal, making the KKT matrix symmetric quasi-definite
// (Vanderbei 1995): every diagonal pivot order then exists, which is
// what lets the shaped symbolic analysis freeze diagonal pivots and the
// minimum-degree ordering deliver its predicted fill. The value is far
// below the solver tolerances; the pivot-decay guard plus value-pivoted
// re-analysis fallback covers the rare iterate that still rejects a
// diagonal sequence.
const kktStaticReg = 1e-8

// ErrMaxIter is returned when the iteration limit is reached.
var ErrMaxIter = errors.New("mips: maximum iterations reached without convergence")

// Solve runs the primal–dual interior-point iteration from x0 (or the
// warm start, if ws is non-nil). It is a Stepper run to completion,
// drawing its Arena from a package-level pool: a worker goroutine
// sweeping many instances of one grid keeps reusing the same compiled
// assembly programs and factor storage, so every solve after the first
// runs its iterations allocation-free.
func Solve(p *Problem, x0 la.Vector, ws *WarmStart, opt Options) (*Result, error) {
	ar := arenaPool.Get().(*Arena)
	defer arenaPool.Put(ar)
	s := newStepper(p, x0, ws, opt, ar)
	for {
		done, err := s.Step()
		if done {
			return s.Result(), err
		}
	}
}

// Stepper drives the interior-point iteration one Newton step at a
// time. NewStepper performs Solve's setup (bound indexing, warm-start
// seeding, the first constraint evaluation); each Step then executes
// exactly one iteration of the main loop — convergence test, KKT
// assembly, factorization, damped update — and reports whether the
// solve terminated. Solve is a Stepper run to completion; the seam
// exists so harnesses can meter single iterations. In particular the
// allocation tests hold a Stepper at a numerical fixed point (by making
// the tolerances unreachable) and assert that a steady-state Step — the
// full assemble/factor/solve/update cycle — performs zero heap
// allocations. RecordTrace is the one exception: appending a trace row
// grows a slice.
type Stepper struct {
	p   *Problem
	opt Options
	ar  *Arena

	nx, neq, niq, nh   int
	upperIdx, lowerIdx []int

	// Iterates. x, lam, mu and z are owned by (and aliased into) res;
	// everything transient lives in the arena.
	x, lam, mu, z la.Vector
	g, h          la.Vector
	jg, jh        *sparse.CSC
	f, f0         float64
	df            la.Vector
	gamma, regKKT float64

	kkt  *sparse.CacheHandle
	res  *Result
	iter int
	done bool
	err  error
}

// NewStepper prepares a solve of p from x0 (or ws) without running any
// iterations. The Stepper owns a private Arena; callers that want the
// pooled-arena fast path use Solve.
func NewStepper(p *Problem, x0 la.Vector, ws *WarmStart, opt Options) *Stepper {
	return newStepper(p, x0, ws, opt, new(Arena))
}

func newStepper(p *Problem, x0 la.Vector, ws *WarmStart, opt Options, ar *Arena) *Stepper {
	opt = opt.withDefaults()
	nx := p.NX
	if len(x0) != nx {
		panic(fmt.Sprintf("mips: x0 length %d != NX %d", len(x0), nx))
	}
	s := &Stepper{p: p, opt: opt, ar: ar, nx: nx}

	// Index the finite bounds once; they become linear inequality rows.
	for i := 0; i < nx; i++ {
		if p.XMax != nil && !math.IsInf(p.XMax[i], 1) {
			s.upperIdx = append(s.upperIdx, i)
		}
	}
	for i := 0; i < nx; i++ {
		if p.XMin != nil && !math.IsInf(p.XMin[i], -1) {
			s.lowerIdx = append(s.lowerIdx, i)
		}
	}

	s.x = x0.Clone()
	if ws != nil && ws.X != nil {
		s.x = ws.X.Clone()
	}
	// Keep the start strictly usable: clip into bounds.
	clipBounds(s.x, p.XMin, p.XMax)

	s.evalGH()
	s.neq, s.niq = len(s.g), len(s.h)
	s.nh = s.niq - len(s.upperIdx) - len(s.lowerIdx)
	ar.ensureKKT(nx, s.neq)

	// Initialize slacks and multipliers (mips.m defaults).
	s.z = make(la.Vector, s.niq)
	s.mu = make(la.Vector, s.niq)
	s.gamma = opt.Gamma0
	for k := 0; k < s.niq; k++ {
		s.z[k] = opt.Z0
		if s.h[k] < -opt.Z0 {
			s.z[k] = -s.h[k]
		}
	}
	for k := 0; k < s.niq; k++ {
		s.mu[k] = opt.Z0
		if s.gamma/s.z[k] > opt.Z0 {
			s.mu[k] = s.gamma / s.z[k]
		}
	}
	s.lam = make(la.Vector, s.neq)
	if ws != nil {
		if ws.Lam != nil {
			if len(ws.Lam) != s.neq {
				panic("mips: warm-start Lam length mismatch")
			}
			s.lam = ws.Lam.Clone()
		}
		if ws.Mu != nil {
			if len(ws.Mu) != s.niq {
				panic("mips: warm-start Mu length mismatch")
			}
			for k := range s.mu {
				s.mu[k] = math.Max(ws.Mu[k], 1e-10)
			}
		}
		if ws.Z != nil {
			if len(ws.Z) != s.niq {
				panic("mips: warm-start Z length mismatch")
			}
			for k := range s.z {
				s.z[k] = math.Max(ws.Z[k], 1e-10)
			}
		}
		if ws.Mu != nil && ws.Z != nil && s.niq > 0 {
			// Barrier consistent with the supplied point; this is what
			// lets a high-quality warm start converge in a few steps.
			s.gamma = math.Max(opt.Sigma*s.z.Dot(s.mu)/float64(s.niq), 1e-12)
		}
	}

	s.res = &Result{
		X: s.x, Lam: s.lam, Mu: s.mu, Z: s.z,
		NIqNonlin: s.nh, UpperIdx: s.upperIdx, LowerIdx: s.lowerIdx,
	}
	s.f, s.df = p.F(s.x)
	s.f0 = s.f

	// One symbolic analysis serves every iteration of this solve: the
	// KKT pattern is fixed — the static dual regularization keeps the
	// full diagonal structurally present, so even the Tikhonov-retry
	// variant reuses the same pattern. Analysis is pivot-shaped (frozen
	// pivots come from the pattern-derived surrogate, not this solve's
	// values), which keeps results independent of solve order and lets
	// a shared opt.KKT cache amortize the analysis across the whole
	// warm-start pipeline; without one, a private cache reproduces the
	// same pivot sequences from scratch.
	kkt := opt.KKT
	if kkt == nil {
		kkt = sparse.NewSymbolicCache(opt.Ordering)
	}
	s.kkt = kkt.Handle()
	return s
}

// Result returns the solve state. Its X/Lam/Mu/Z alias the live
// iterates until Step reports done.
func (s *Stepper) Result() *Result { return s.res }

// finish records the terminal state and folds the solve's KKT reuse
// counters into the cache. Bound multipliers are split back out per
// variable only on convergence, matching Solve's contract.
func (s *Stepper) finish(err error) (bool, error) {
	s.done, s.err = true, err
	res := s.res
	res.F = s.f
	if res.Converged {
		res.MuUpper = make(la.Vector, s.nx)
		res.MuLower = make(la.Vector, s.nx)
		for k, i := range s.upperIdx {
			res.MuUpper[i] = s.mu[s.nh+k]
		}
		off := s.nh + len(s.upperIdx)
		for k, i := range s.lowerIdx {
			res.MuLower[i] = s.mu[off+k]
		}
	}
	s.kkt.Close()
	return true, s.err
}

// Step executes one iteration of the interior-point loop (a KKT
// factorization failure consumes an iteration and retries with
// escalating Tikhonov regularization, exactly as the historical loop
// did). It returns done=true with the terminal error — nil on
// convergence — after which further calls are no-ops.
func (s *Stepper) Step() (bool, error) {
	if s.done {
		return true, s.err
	}
	p, opt, ar := s.p, &s.opt, s.ar
	nx, neq, niq := s.nx, s.neq, s.niq

	// Lagrangian gradient Lx = df + Jgᵀλ + Jhᵀµ.
	lx := ar.lx
	copy(lx, s.df)
	if s.jg != nil {
		s.jg.MulVecTInto(ar.tmpNx, s.lam)
		lx.Add(ar.tmpNx)
	}
	s.jh.MulVecTInto(ar.tmpNx, s.mu)
	lx.Add(ar.tmpNx)

	maxH := math.Inf(-1)
	if niq == 0 {
		maxH = 0
	}
	for _, v := range s.h {
		if v > maxH {
			maxH = v
		}
	}
	feas := math.Max(s.g.NormInf(), maxH) / (1 + math.Max(s.x.NormInf(), s.z.NormInf()))
	grad := lx.NormInf() / (1 + math.Max(s.lam.NormInf(), s.mu.NormInf()))
	comp := 0.0
	if niq > 0 {
		comp = s.z.Dot(s.mu) / (1 + s.x.NormInf())
	}
	cost := math.Abs(s.f-s.f0) / (1 + math.Abs(s.f0))
	s.res.Iterations = s.iter

	if opt.RecordTrace {
		s.res.Trace = append(s.res.Trace, IterStat{
			Iter: s.iter, FeasCond: feas, GradCond: grad,
			CompCond: comp, CostCond: cost, Gamma: s.gamma, Objective: s.f,
		})
	}
	if feas < opt.FeasTol && grad < opt.GradTol && comp < opt.CompTol &&
		cost < opt.CostTol {
		s.res.Converged = true
		return s.finish(nil)
	}
	if s.iter == opt.MaxIter {
		return s.finish(ErrMaxIter)
	}
	if s.x.HasNaN() || s.lam.HasNaN() || s.mu.HasNaN() {
		return s.finish(fmt.Errorf("%w: NaN in iterates at iteration %d", ErrNumeric, s.iter))
	}

	// Newton KKT system, assembled in one compiled pass: the (1,1)
	// block JhᵀWJh + ∇²L + regKKT·I, the Jg borders, and the grounded
	// diagonal. The append sequence is identical every iteration —
	// regKKT·I is stamped even at regKKT = 0 (it doubles as the primal
	// block's structural-diagonal grounding), and W = µ/Z is strictly
	// positive so no product row is ever skipped — which keeps the
	// assembler on its verified O(nnz) stamp path.
	lxx := s.hessOrZero()
	w := ar.w
	for k := 0; k < niq; k++ {
		w[k] = s.mu[k] / s.z[k]
	}
	ar.jhView.update(s.jh)
	view := &ar.jhView
	asm := ar.kktAsm
	asm.Begin()
	jhVal := s.jh.Val
	for r := 0; r < niq; r++ {
		lo, hi := view.rowPtr[r], view.rowPtr[r+1]
		rv := ar.outerVals[:hi-lo]
		for t, p := 0, lo; p < hi; p, t = p+1, t+1 {
			rv[t] = jhVal[view.valPos[p]]
		}
		asm.AppendOuter(w[r], view.colIdx[lo:hi], rv)
	}
	asm.AppendCSC(0, 0, 1, lxx)
	for i := 0; i < nx; i++ {
		asm.Append(i, i, s.regKKT)
	}
	if s.jg != nil {
		asm.AppendCSC(nx, 0, 1, s.jg)
		for j := 0; j < s.jg.NCols; j++ {
			for q := s.jg.ColPtr[j]; q < s.jg.ColPtr[j+1]; q++ {
				asm.Append(j, nx+s.jg.RowIdx[q], s.jg.Val[q])
			}
		}
	}
	// Ground the dual diagonal with the static −δ regularization: the
	// quasi-definite diagonal keeps shaped pivot sequences on the
	// diagonal, where minimum-degree fill predictions hold —
	// severalfold less fill than pivoting off an empty dual diagonal —
	// and makes the pattern invariant under the Tikhonov retry, so one
	// symbolic analysis covers every iteration of every solve. δ only
	// perturbs the step O(δ·‖Δ‖), far below the convergence tolerances.
	for i := 0; i < neq; i++ {
		asm.Append(nx+i, nx+i, -kktStaticReg)
	}
	kkt := asm.Finish()

	rhs := ar.rhs
	for k := 0; k < niq; k++ {
		ar.tmpNiq[k] = (s.mu[k]*s.h[k] + s.gamma) / s.z[k]
	}
	s.jh.MulVecTInto(ar.tmpNx, ar.tmpNiq)
	for i := 0; i < nx; i++ {
		rhs[i] = -(lx[i] + ar.tmpNx[i])
	}
	for i := 0; i < neq; i++ {
		rhs[nx+i] = -s.g[i]
	}

	fac, ferr := s.kkt.FactorizeInto(&ar.slot, kkt)
	if ferr != nil {
		// Retry the same iterate with escalating Tikhonov
		// regularization on the (1,1) block.
		if s.regKKT == 0 {
			s.regKKT = 1e-8
		} else {
			s.regKKT *= 100
		}
		if s.regKKT > 1e-2 {
			return s.finish(fmt.Errorf("%w: %v", ErrNumeric, ferr))
		}
		s.iter++
		return false, nil
	}
	fac.SolveInto(ar.dxdlam, rhs, ar.solveWork)

	dx := ar.dxdlam[:nx]
	dlam := ar.dxdlam[nx:]
	dz, dmu := ar.dz, ar.dmu
	s.jh.MulVecInto(ar.jdx, dx)
	for k := 0; k < niq; k++ {
		dz[k] = -s.h[k] - s.z[k] - ar.jdx[k]
	}
	for k := 0; k < niq; k++ {
		dmu[k] = -s.mu[k] + (s.gamma-s.mu[k]*dz[k])/s.z[k]
	}

	// Fraction-to-the-boundary step lengths.
	alphaP, alphaD := 1.0, 1.0
	for k := 0; k < niq; k++ {
		if dz[k] < 0 {
			if a := opt.Xi * s.z[k] / -dz[k]; a < alphaP {
				alphaP = a
			}
		}
		if dmu[k] < 0 {
			if a := opt.Xi * s.mu[k] / -dmu[k]; a < alphaD {
				alphaD = a
			}
		}
	}

	s.x.AddScaled(alphaP, dx)
	s.z.AddScaled(alphaP, dz)
	s.lam.AddScaled(alphaD, dlam)
	s.mu.AddScaled(alphaD, dmu)
	if niq > 0 {
		s.gamma = opt.Sigma * s.z.Dot(s.mu) / float64(niq)
	}
	if opt.RecordTrace {
		s.res.Trace[len(s.res.Trace)-1].StepSize = dx.NormInf() * alphaP
	}

	s.f0 = s.f
	s.f, s.df = p.F(s.x)
	s.evalGH()
	s.iter++
	return false, nil
}

// evalGH evaluates the nonlinear constraints and assembles the full
// inequality system — nonlinear h rows first, then upper- and
// lower-bound rows — into the arena's compiled assembler and residual
// buffer.
func (s *Stepper) evalGH() {
	var h la.Vector
	var jh *sparse.CSC
	if s.p.G != nil {
		s.g, s.jg = s.p.G(s.x)
	}
	if s.p.H != nil {
		h, jh = s.p.H(s.x)
	}
	nh := len(h)
	niq := nh + len(s.upperIdx) + len(s.lowerIdx)
	ar := s.ar
	ar.ensureIneq(niq, s.nx)
	copy(ar.hFull, h)
	asm := ar.jhAsm
	asm.Begin()
	if jh != nil {
		asm.AppendCSC(0, 0, 1, jh)
	}
	for k, i := range s.upperIdx {
		ar.hFull[nh+k] = s.x[i] - s.p.XMax[i]
		asm.Append(nh+k, i, 1)
	}
	off := nh + len(s.upperIdx)
	for k, i := range s.lowerIdx {
		ar.hFull[off+k] = s.p.XMin[i] - s.x[i]
		asm.Append(off+k, i, -1)
	}
	s.h = ar.hFull
	s.jh = asm.Finish()
}

func (s *Stepper) hessOrZero() *sparse.CSC {
	if s.p.Hess == nil {
		return s.ar.zeroHess
	}
	// Only the nonlinear inequality multipliers reach the Hessian.
	return s.p.Hess(s.x, s.lam, s.mu[:s.nh])
}

// jtDiagJ computes Jᵀ·diag(w)·J for a row-per-constraint Jacobian. It
// is the reference implementation the tests pin the arena's view-based
// KKT assembly against; the solver itself streams the product straight
// into its compiled assembler (see Step).
func jtDiagJ(j *sparse.CSC, w la.Vector) *sparse.CSC {
	// Work row-wise: columns of Jᵀ are rows of J.
	jt := j.T() // nx × niq: column r holds row r of J
	nx := j.NCols
	b := sparse.NewBuilder(nx, nx)
	for r := 0; r < jt.NCols; r++ {
		wr := w[r]
		if wr == 0 {
			continue
		}
		lo, hi := jt.ColPtr[r], jt.ColPtr[r+1]
		for p1 := lo; p1 < hi; p1++ {
			for p2 := lo; p2 < hi; p2++ {
				b.Append(jt.RowIdx[p1], jt.RowIdx[p2], wr*jt.Val[p1]*jt.Val[p2])
			}
		}
	}
	return b.ToCSC()
}

func clipBounds(x, xmin, xmax la.Vector) {
	for i := range x {
		if xmin != nil && x[i] < xmin[i] {
			x[i] = xmin[i]
		}
		if xmax != nil && x[i] > xmax[i] {
			x[i] = xmax[i]
		}
	}
}
