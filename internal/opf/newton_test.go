package opf

import (
	"runtime"
	"testing"

	"repro/internal/grid"
	"repro/internal/mips"
)

// TestFreshProblemFirstEvalAllocsZero pins the shared evaluation
// program: once any instance of a grid has compiled it, a fresh
// Problem() — of the grid or of an outage class of it — binds its
// scratch up front, so the first objective, constraint and Hessian calls
// allocate nothing.
func TestFreshProblemFirstEvalAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	base := Prepare(grid.Case118())
	if _, err := base.Solve(nil, Options{}); err != nil {
		t.Fatal(err)
	}
	out, err := base.RebindOutage(0)
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*OPF{"intact": base, "outage": out} {
		p := o.Problem()
		x, lam, mu := evalTestPoint(o)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p.F(x)
		p.G(x)
		p.H(x)
		p.Hess(x, lam, mu)
		runtime.ReadMemStats(&m1)
		if n := m1.Mallocs - m0.Mallocs; n != 0 {
			t.Errorf("%s: the first evaluations through a fresh Problem() allocate %d times, want 0", name, n)
		}
	}
}

// BenchmarkNewtonSystem meters one interior-point iteration's
// evaluation and assembly work on case118 and case300 — objective,
// constraints with their Jacobians, Hessian, and the Newton KKT matrix —
// through a real Stepper held near its fixed point (unreachable
// tolerances, as the allocation harness does), without the
// factorization. The point cache is dropped before every pass so each
// one recomputes the per-point quantities as an iteration at a new
// iterate does. Any allocation in the steady pass fails the benchmark.
func BenchmarkNewtonSystem(b *testing.B) {
	for _, c := range []*grid.Case{grid.Case118(), grid.Case300()} {
		b.Run(c.Name, func(b *testing.B) {
			o := Prepare(c)
			sc := new(evalScratch)
			opt := mips.Options{
				FeasTol: 1e-300, GradTol: 1e-300, CompTol: 1e-300, CostTol: 1e-300,
				MaxIter: 1 << 20, KKT: o.kkt,
			}
			s := mips.NewStepper(o.problemWith(sc), o.DefaultStart(), nil, opt)
			for i := 0; i < 30; i++ {
				if done, err := s.Step(); done {
					b.Fatalf("stepper finished during warm-up (iteration %d): %v", i, err)
				}
			}
			pass := func() {
				sc.xAt = sc.xAt[:0]
				s.Assemble()
			}
			if !raceEnabled {
				if n := testing.AllocsPerRun(10, pass); n != 0 {
					b.Fatalf("a steady evaluation and assembly pass allocates %v times, want 0", n)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}
