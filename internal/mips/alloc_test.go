package mips_test

import (
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/mips"
	"repro/internal/opf"
	"repro/internal/sparse"
)

// This file is the allocation-regression harness of the zero-allocation
// contract (DESIGN.md §11): once a solve's first iterations have
// compiled the slot maps and bound the factor slot, a warm interior-
// point iteration — constraint evaluation, KKT assembly, numeric
// refactorization, triangular solves, step updates — performs zero heap
// allocations. The harness drives real AC-OPF problems (case14 and
// case118) through the exported Stepper seam with unreachably tight
// tolerances, so Step keeps executing the full per-iteration work past
// the point where a solve would converge out of the loop, and requires
// exactly zero heap allocations over a run of consecutive Steps. Any
// future buffer leak — in the opf streaming evaluators, the mips arena,
// or the sparse factorization kernels underneath — fails this test in
// CI.
//
// The run is bounded: past the fixed point the barrier weights grow
// without limit, and some 30 iterations into a cold case118 solve a KKT
// column collapses below the factorization's singularity threshold and
// the solve ends (ErrNumeric). The measured run ends before that, and
// it starts early enough to hold the inertia-corrected steps of the
// first iterations, where the barrier is still large: their saved
// primal diagonal and repeated factorizations must not allocate either.

// Warm-up and measured Steps of the harness: the first Step builds
// every lazily built structure, and warmSteps+measuredSteps stays short
// of case118's collapse at the fixed point.
const (
	warmSteps     = 1
	measuredSteps = 20
)

// stepAllocs runs n Steps of s and returns the heap allocations they
// made, failing if the stepper finishes or if no Step of the window
// corrected the KKT inertia.
func stepAllocs(tb testing.TB, s *mips.Stepper, n int) uint64 {
	tb.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := s.Result().InertiaCorrections
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if done, err := s.Step(); done {
			tb.Fatalf("stepper finished mid-measurement: %v", err)
		}
	}
	runtime.ReadMemStats(&m1)
	if s.Result().InertiaCorrections == before {
		tb.Fatalf("no inertia correction in the %d measured Steps", n)
	}
	return m1.Mallocs - m0.Mallocs
}

// warmStepper builds a Stepper over the real AC-OPF of c and runs it
// past the point where every lazily-built structure exists: the
// equality/inequality/Hessian evaluation program, the KKT and
// inequality slot maps, the inequality-Jacobian row view, and the
// factor slot.
func warmStepper(tb testing.TB, c *grid.Case, warmup int) *mips.Stepper {
	tb.Helper()
	return warmStepperOn(tb, opf.Prepare(c), nil, warmup)
}

// warmStepperOn is warmStepper over a prepared instance, factoring
// through kkt (nil: a cache private to the stepper).
func warmStepperOn(tb testing.TB, o *opf.OPF, kkt *sparse.SymbolicCache, warmup int) *mips.Stepper {
	tb.Helper()
	opt := mips.Options{
		FeasTol: 1e-300, GradTol: 1e-300, CompTol: 1e-300, CostTol: 1e-300,
		MaxIter: 1 << 20, KKT: kkt,
	}
	s := mips.NewStepper(o.Problem(), o.DefaultStart(), nil, opt)
	for i := 0; i < warmup; i++ {
		if done, err := s.Step(); done {
			tb.Fatalf("stepper finished during warm-up (iteration %d): %v", i, err)
		}
	}
	return s
}

// TestWarmStepAllocsZero pins the steady-state iteration at zero
// allocations on case14 and case118. Because Step spans the whole
// pipeline, this also pins the sparse LDLᵀ FactorInto and SolveInto
// calls on real KKT systems of both sizes, supernodal panels included
// (the synthetic-matrix pins live in sparse's own allocation tests).
func TestWarmStepAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range []*grid.Case{grid.Case14(), grid.Case118()} {
		t.Run(c.Name, func(t *testing.T) {
			s := warmStepper(t, c, warmSteps)
			if n := stepAllocs(t, s, measuredSteps); n != 0 {
				t.Errorf("%d warm Steps allocate %d times, want 0", measuredSteps, n)
			}
		})
	}
}

// TestEmbeddedStepAllocsZero is the same pin for an outage class that
// keeps its parent's KKT analysis: its systems have the intact pattern
// (explicit zeros where the branch was) and refactor on the intact
// symbolic, so the steady-state iteration still allocates nothing. A
// full outage solve through the derived cache first — before anything
// has solved the intact system — and an intact solve after it show that
// path is the one measured: the outage makes the root's analysis, and
// the intact system finds its own pattern in it.
func TestEmbeddedStepAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range []*grid.Case{grid.Case14(), grid.Case118()} {
		t.Run(c.Name, func(t *testing.T) {
			base := opf.Prepare(c)
			out, err := base.RebindOutage(1) // meshed on both systems; corrects inertia at step 1
			if err != nil {
				t.Fatal(err)
			}
			root := sparse.NewSymbolicCache()
			der := root.Derive()
			if _, err := mips.Solve(out.Problem(), out.DefaultStart(), nil, mips.Options{KKT: der}); err != nil {
				t.Fatal(err)
			}
			if _, err := mips.Solve(base.Problem(), base.DefaultStart(), nil, mips.Options{KKT: root}); err != nil {
				t.Fatal(err)
			}
			if st, rt := der.Stats(), root.Stats(); st.Analyses != 0 || st.Orderings != 0 || st.Refactors == 0 || rt.Analyses != 1 || rt.Orderings != 1 {
				t.Fatalf("outage solve did not refactor on the root's analysis: derived %+v, root %+v", st, rt)
			}
			s := warmStepperOn(t, out, der, warmSteps)
			if n := stepAllocs(t, s, measuredSteps); n != 0 {
				t.Errorf("%d outage-class warm Steps allocate %d times, want 0", measuredSteps, n)
			}
		})
	}
}
