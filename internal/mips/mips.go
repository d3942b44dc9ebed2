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
// The one departure from mips.m: while the barrier γ is above 1e-4, a
// KKT factor of wrong inertia — other than neq negative pivots, so the
// (1,1) block is not positive definite on the null space of the
// equality Jacobian — is refactored with δ_w·I added to that block
// (Wächter & Biegler 2006, §3.1; see inertiaGamma). Cold solves that
// meet such factors converge in fewer iterations (case118 at nominal
// load: 17 against 34); warm starts begin far below the threshold and
// take mips.m's steps.
//
// A solve that does not converge ends on one of three verdicts, tested
// in this order after the convergence test of each iteration: ErrMaxIter
// at Options.MaxIter, ErrNumeric on NaN iterates (or a KKT factor with
// a collapsed column, or whose inertia no δ_w corrects), and ErrStalled
// when the best primal feasibility seen has not halved over the last 65
// iterations. The stall rule only ends solves, it never changes an
// iterate: a solve it leaves alone takes exactly the iterations and
// reaches exactly the point it would without it. The rule has a floor:
// feasibility already within ten times FeasTol is never "stalled",
// because a solve stuck there is feasible and waiting on the gradient or
// complementarity conditions, which a feasibility trend says nothing
// about.
//
// The per-iteration Newton KKT system is the solver's hot path. Its
// sparsity pattern is fixed across all iterations of a solve, so Solve
// performs one symbolic analysis (fill-reducing ordering, elimination
// tree, column patterns, supernodes) on the first iteration and
// numeric-only LDLᵀ factorizations after, with diagonal pivots in the
// analysis order — see sparse.SymbolicCache and DESIGN.md §7. No value
// enters the analysis, it is a function of the pattern alone, so
// Options.KKT extends that reuse across every solve that shares a
// problem structure; without one, the solve analyzes on a cache private
// to it, under the same exact minimum-degree ordering.
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
	// callers must supply Hess whenever G or H is set). The Hessian is
	// symmetric, and the solver reads the entries on and below its
	// diagonal: an entry above the diagonal is ignored, so a pattern
	// must hold the lower one of each off-diagonal pair.
	//
	// G, H and Hess may return the same matrix on every call with fresh
	// values; the solver compiles its assembly per pattern and recognizes
	// a pattern by its ColPtr/RowIdx arrays, so those must not be
	// rewritten in place once returned — a changed pattern comes in new
	// arrays.
	Hess func(x la.Vector, lam, mu la.Vector) *sparse.CSC

	// XMin and XMax are variable bounds; nil means unbounded. Use
	// math.Inf entries for individually unbounded variables.
	XMin, XMax la.Vector
}

// The interior-point constants of MIPS (mips.m's defaults).
const (
	xi     = 0.99995 // step back-off
	sigma  = 0.1     // centering parameter
	z0     = 1       // initial slack scale
	gamma0 = 1       // initial barrier of a cold start
)

// The stall rule: a solve whose best feasibility condition has not
// halved in stallWindow iterations, while still above stallFloor·FeasTol
// and stallFloorMin, ends with ErrStalled. The window is 25 % above the
// longest such stretch of a converging solve in the calibration corpus,
// 52 iterations (PERFORMANCE.md, "Stalled feasibility ends a solve").
// stallFloorMin keeps rounding-level feasibility (≈1e-15 at a fixed
// point, where callers with unreachable tolerances keep iterating) from
// counting as stalled.
const (
	stallWindow   = 65
	stallFloor    = 10
	stallFloorMin = 1e-10
)

// Options tunes the solver. Zero values take the MIPS defaults.
type Options struct {
	FeasTol, GradTol, CompTol, CostTol float64 // default 1e-6
	MaxIter                            int     // default 150
	RecordTrace                        bool    // keep per-iteration Trace

	// Ordering has one value, sparse.OrderMinDegree (the zero value):
	// every KKT analysis, shared or private, orders by exact minimum
	// degree, and the field is ignored. It is kept only because the
	// benchmark harness under bench/ sets it.
	Ordering sparse.Ordering
	// KKT, when non-nil, is the shared analysis cache of the problem's
	// KKT pattern (see sparse.SymbolicCache): the solve consults it
	// through a per-solve handle before analyzing, so repeat solves of
	// the same pattern — the whole warm-start pipeline — skip ordering
	// and symbolic analysis entirely. The analysis — ordering,
	// elimination tree, supernodes — is a pure function of the sparsity
	// pattern, a property of the problem structure and not of its
	// values, and the LDLᵀ keeps every pivot on the diagonal, so one
	// cache safely serves all solves of load-perturbed instances of one
	// grid — concurrently and deterministically (opf threads its
	// per-grid cache through here). The solve's reuse counters are folded into the
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
	// InertiaCorrections counts the KKT refactorizations made to correct
	// the factor's inertia (see inertiaGamma): a solve factors its KKT
	// system Iterations + InertiaCorrections times.
	InertiaCorrections int
}

// ErrNumeric is returned when the KKT system cannot be solved.
var ErrNumeric = errors.New("mips: numerical failure in KKT solve")

// kktStaticReg is the static regularization −δ placed on the equality
// block's diagonal, making the KKT matrix symmetric quasi-definite
// (Vanderbei 1995): every diagonal pivot order then exists, which is
// what lets the LDLᵀ keep its pivots on the diagonal and the
// minimum-degree ordering deliver its predicted fill. It is not the
// regularization the dual pivots end up with: a pivot eliminated at −δ
// lies below the LDLᵀ's static pivot boost (1e-8 of its column's largest
// updated entry) wherever that column holds an entry above 1, and is
// factored at −1e-8·max|column|. The boost is load-bearing — without it
// cold case14 N-2 converges 153 of 163 branch pairs instead of 160
// (PERFORMANCE.md, "The static pivot boost stays"). A column that
// collapses (sparse.ErrSingular) ends the solve with ErrNumeric.
const kktStaticReg = 1e-8

// The inertia correction of factorKKT. While γ > inertiaGamma, a factor
// with other than neq negative pivots is refactored with δ_w·I on the
// (1,1) block: δ_w starts at dwLast/3 (at least dwMin), or at dwFirst
// in a solve without an earlier correction, and grows ×dwUpLast
// (×dwUpFirst without one); past dwMax the solve ends with ErrNumeric.
// Below inertiaGamma, where every warm start begins, the factor is used
// as it is (PERFORMANCE.md, "Inertia correction while the barrier is
// large").
const (
	inertiaGamma = 1e-4
	dwFirst      = 1e-4
	dwMin        = 1e-20
	dwMax        = 1e40
	dwUpFirst    = 100
	dwUpLast     = 8
)

// ErrMaxIter is returned when the iteration limit is reached.
var ErrMaxIter = errors.New("mips: maximum iterations reached without convergence")

// ErrStalled is returned when primal feasibility stops improving (see
// the package doc and stallWindow). A solve that wanders at one
// feasibility level for longer than the window and then converges ends
// here too: PERFORMANCE.md's scan found 3 in 13,200 cold case9/case14
// outage solves, and none in the calibration corpus.
var ErrStalled = errors.New("mips: primal feasibility stalled")

// Solve runs the primal–dual interior-point iteration from x0 (or the
// warm start, if ws is non-nil). It is a Stepper run to completion,
// drawing its Arena from a package-level pool: a worker goroutine
// sweeping many instances of one grid keeps reusing the same compiled
// slot maps and factor storage, so every solve after the first
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
	gamma         float64
	// dwLast is the last δ_w an inertia correction accepted (0: none yet).
	dwLast float64

	// best is the smallest feasibility condition seen so far; bests[i %
	// stallWindow] holds its value at iteration i for the last
	// stallWindow iterations (the stall rule).
	best  float64
	bests [stallWindow]float64

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
	s := &Stepper{p: p, opt: opt, ar: ar, nx: nx, best: math.Inf(1)}

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
	s.gamma = gamma0
	for k := 0; k < s.niq; k++ {
		s.z[k] = z0
		if s.h[k] < -z0 {
			s.z[k] = -s.h[k]
		}
	}
	for k := 0; k < s.niq; k++ {
		s.mu[k] = z0
		if s.gamma/s.z[k] > z0 {
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
			s.gamma = math.Max(sigma*s.z.Dot(s.mu)/float64(s.niq), 1e-12)
		}
	}

	s.res = &Result{
		X: s.x, Lam: s.lam, Mu: s.mu, Z: s.z,
		NIqNonlin: s.nh, UpperIdx: s.upperIdx, LowerIdx: s.lowerIdx,
	}
	s.f, s.df = p.F(s.x)
	s.f0 = s.f

	// One symbolic analysis serves every iteration of this solve: the
	// KKT pattern is fixed — the stamp keeps the full diagonal
	// structurally present, so an inertia correction's δ_w·I reuses the
	// same pattern. The analysis reads no values,
	// which keeps results independent of solve order and lets a shared
	// opt.KKT cache amortize it across the whole warm-start pipeline;
	// without one, a private cache reproduces the same analysis from
	// scratch.
	kkt := opt.KKT
	if kkt == nil {
		kkt = sparse.NewSymbolicCache()
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

// Step executes one iteration of the interior-point loop: every Step
// that does not end the solve moves the iterate. It returns done=true
// with the terminal error — nil on convergence, ErrNumeric on a KKT
// system factorKKT rejects — after which further calls are no-ops.
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
	if feas < s.best {
		s.best = feas
	}
	slot := &s.bests[s.iter%stallWindow]
	if s.iter >= stallWindow && s.best > *slot/2 && s.best > math.Max(stallFloor*opt.FeasTol, stallFloorMin) {
		return s.finish(fmt.Errorf("%w: best feasibility %.3g at iteration %d, %.3g %d iterations before",
			ErrStalled, s.best, s.iter, *slot, stallWindow))
	}
	*slot = s.best

	s.newtonKKT()

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

	fac, err := s.factorKKT()
	if err != nil {
		return s.finish(err)
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
			if a := xi * s.z[k] / -dz[k]; a < alphaP {
				alphaP = a
			}
		}
		if dmu[k] < 0 {
			if a := xi * s.mu[k] / -dmu[k]; a < alphaD {
				alphaD = a
			}
		}
	}

	s.x.AddScaled(alphaP, dx)
	s.z.AddScaled(alphaP, dz)
	s.lam.AddScaled(alphaD, dlam)
	s.mu.AddScaled(alphaD, dmu)
	if niq > 0 {
		s.gamma = sigma * s.z.Dot(s.mu) / float64(niq)
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

// factorKKT factors the Newton KKT system and decides how it is
// regularized; no other code does. A collapsed column
// (sparse.ErrSingular) ends the solve with ErrNumeric; a factor of wrong
// inertia at a large barrier is corrected.
func (s *Stepper) factorKKT() (*sparse.LDLFactors, error) {
	fac, err := s.Factor()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNumeric, err)
	}
	if s.gamma <= inertiaGamma || fac.NegativePivots() == s.neq {
		return fac, nil
	}
	return s.correctInertia()
}

// correctInertia refactors the KKT system up the δ_w ladder until its
// factor has neq negative pivots. δ_w goes into the primal-diagonal
// slots the stamp already carries, on the same analysis and without a
// new Hessian; a collapsed column on the way counts as wrong inertia.
func (s *Stepper) correctInertia() (*sparse.LDLFactors, error) {
	ar := s.ar
	ar.kkt.saveReg(ar.regBase)
	dw, up := dwFirst, float64(dwUpFirst)
	if s.dwLast > 0 {
		dw, up = math.Max(s.dwLast/3, dwMin), dwUpLast
	}
	for ; dw <= dwMax; dw *= up {
		ar.kkt.shiftReg(ar.regBase, dw)
		s.res.InertiaCorrections++
		if fac, err := s.Factor(); err == nil && fac.NegativePivots() == s.neq {
			s.dwLast = dw
			return fac, nil
		}
	}
	return nil, fmt.Errorf("%w: no δ_w up to %g corrects the KKT inertia at iteration %d", ErrNumeric, dwMax, s.iter)
}

// newtonKKT evaluates the Hessian at the current iterate and assembles
// the Newton KKT system: the (1,1) block JhᵀWJh + ∇²L, the Jg border,
// and the grounded dual diagonal, each symmetric pair stamped once,
// straight into the packed layout of the LDLᵀ analysis the cache holds
// for the pattern (compiled once per pattern triple Jh, Hessian, Jg).
// The pattern holds the full primal diagonal, the slots an inertia
// correction shifts by δ_w, so one symbolic analysis covers every
// iteration of every solve. The dual diagonal carries the static −δ
// regularization: the quasi-definite diagonal keeps the LDLᵀ's pivots
// on the diagonal, where minimum-degree fill predictions hold —
// severalfold less fill than pivoting off an empty dual diagonal. δ only
// perturbs the step O(δ·‖Δ‖), far below the convergence tolerances.
func (s *Stepper) newtonKKT() {
	ar := s.ar
	var hess *sparse.CSC
	if s.p.Hess != nil {
		// Only the nonlinear inequality multipliers reach the Hessian.
		hess = s.p.Hess(s.x, s.lam, s.mu[:s.nh])
	}
	w := ar.w
	for k := range w {
		w[k] = s.mu[k] / s.z[k]
	}
	ar.kkt.bind(&ar.ineq, hess, s.jg, s.nx, s.neq)
	ar.kkt.address(s.kkt.Analysis(ar.kkt.pat))
	ar.kkt.stamp(&ar.ineq, w, hess, s.jg)
}

// Assemble re-evaluates the problem at the current iterate — objective,
// constraints, Hessian — and assembles the Newton KKT system the next
// Step factors, leaving the solve's state as it was: the same
// evaluations at the same point reproduce the same values. It is the
// metering seam of one iteration's evaluation and assembly work without
// the factorization.
func (s *Stepper) Assemble() {
	s.f, s.df = s.p.F(s.x)
	s.evalGH()
	s.newtonKKT()
}

// KKT returns the system the last Assemble or Step stamped as a new CSC
// matrix, each symmetric pair's value in both triangles: the matrix Step
// factors, for tests and benchmarks that factor it themselves.
func (s *Stepper) KKT() *sparse.CSC { return s.ar.kkt.matrix() }

// Factor factors the system the last Assemble or Step stamped, through
// the solve's KKT cache handle, as Step does before its inertia check.
// The factors are the arena's, valid until the next Step, Assemble or
// Factor.
func (s *Stepper) Factor() (*sparse.LDLFactors, error) {
	k := &s.ar.kkt
	return s.kkt.FactorizePacked(&s.ar.slot, k.sym, k.v)
}

// evalGH evaluates the nonlinear constraints and assembles the full
// inequality system — nonlinear h rows first, then upper- and
// lower-bound rows — into the arena's residual buffer and inequality
// Jacobian, stamped through its slot map.
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
	ar.ensureIneq(niq)
	copy(ar.hFull, h)
	for k, i := range s.upperIdx {
		ar.hFull[nh+k] = s.x[i] - s.p.XMax[i]
	}
	off := nh + len(s.upperIdx)
	for k, i := range s.lowerIdx {
		ar.hFull[off+k] = s.p.XMin[i] - s.x[i]
	}
	sys := &ar.ineq
	sys.bind(jh, s.nx, s.upperIdx, s.lowerIdx)
	v, pos := sys.m.Val, sys.pos
	clear(v)
	n := nnz(jh)
	for q, p := range pos[:n] {
		v[p] += jh.Val[q]
	}
	pos = pos[n:]
	for k := range s.upperIdx {
		v[pos[k]] += 1
	}
	for k := range s.lowerIdx {
		v[pos[len(s.upperIdx)+k]] += -1
	}
	s.h = ar.hFull
	s.jh = sys.m
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
