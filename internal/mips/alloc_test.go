package mips_test

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/mips"
	"repro/internal/opf"
	"repro/internal/sparse"
)

// This file is the allocation-regression harness of the zero-allocation
// contract (DESIGN.md §11): once a solve's first iterations have
// compiled the assemblers and bound the factor slot, a warm interior-
// point iteration — constraint evaluation, KKT assembly, numeric
// refactorization, triangular solves, step updates — performs zero heap
// allocations. The harness drives real AC-OPF problems (case14 and
// case118) through the exported Stepper seam with unreachably tight
// tolerances, so Step keeps executing the full per-iteration work at
// the numerical fixed point instead of converging out of the loop, and
// pins testing.AllocsPerRun at exactly zero. Any future buffer leak —
// in the opf streaming evaluators, the mips arena, or the sparse
// refactorization kernels underneath — fails this test in CI.

// warmStepper builds a Stepper over the real AC-OPF of c and runs it
// past the point where every lazily-built structure exists: the
// equality/inequality/Hessian assembly programs, the KKT assembly
// program, the inequality-Jacobian row view, and the LU factor slot.
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
// pipeline, this also pins the sparse RefactorInto/RefactorBlockedInto
// and SolveInto calls on real KKT systems of both sizes (case118's KKT
// crosses the blocked kernel's panel threshold; the synthetic-matrix
// pins live in sparse's own allocation tests).
func TestWarmStepAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range []*grid.Case{grid.Case14(), grid.Case118()} {
		t.Run(c.Name, func(t *testing.T) {
			s := warmStepper(t, c, 60)
			if n := testing.AllocsPerRun(100, func() {
				if done, err := s.Step(); done {
					t.Fatalf("stepper finished mid-measurement: %v", err)
				}
			}); n != 0 {
				t.Errorf("warm Step allocates %v times per iteration, want 0", n)
			}
		})
	}
}

// TestEmbeddedStepAllocsZero is the same pin for an outage class that
// keeps its parent's KKT analysis: its systems are scattered into the
// intact pattern (explicit zeros where the branch was) and refactored on
// the intact symbolic, and the scatter buffer lives with the factor
// slot, so the steady-state iteration still allocates nothing. A full
// solve through the derived cache first shows the embedded path is the
// one being measured: it refactors without ordering or analyzing.
func TestEmbeddedStepAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, c := range []*grid.Case{grid.Case14(), grid.Case118()} {
		t.Run(c.Name, func(t *testing.T) {
			base := opf.Prepare(c)
			out, err := base.RebindOutage(0) // meshed on both systems
			if err != nil {
				t.Fatal(err)
			}
			root := sparse.NewSymbolicCache(base.Ordering())
			if _, err := mips.Solve(base.Problem(), base.DefaultStart(), nil, mips.Options{KKT: root}); err != nil {
				t.Fatal(err)
			}
			der := root.Derive()
			if _, err := mips.Solve(out.Problem(), out.DefaultStart(), nil, mips.Options{KKT: der}); err != nil {
				t.Fatal(err)
			}
			if st := der.Stats(); st.Analyses != 0 || st.Orderings != 0 || st.Refactors == 0 {
				t.Fatalf("outage solve did not stay on the intact analysis: %+v", st)
			}
			s := warmStepperOn(t, out, der, 60)
			if n := testing.AllocsPerRun(100, func() {
				if done, err := s.Step(); done {
					t.Fatalf("stepper finished mid-measurement: %v", err)
				}
			}); n != 0 {
				t.Errorf("embedded warm Step allocates %v times per iteration, want 0", n)
			}
		})
	}
}
