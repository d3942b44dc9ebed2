package opf

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/mips"
)

// TestFreshProblemFirstEvalAllocsZero pins the shared evaluation
// program: once any instance of a grid has compiled it, a fresh
// Problem() — of the grid or of an outage class of it — binds its
// scratch up front, so the first objective, constraint and Hessian calls
// allocate nothing. Every run of the window evaluates through a Problem
// built before it and not used yet, the warm-up run included, so each
// counted evaluation is a first one.
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
	const runs = 5
	for name, o := range map[string]*OPF{"intact": base, "outage": out} {
		fresh := make([]*mips.Problem, runs+1) // AllocsPerRun warms up with one run
		for i := range fresh {
			fresh[i] = o.Problem()
		}
		x, lam, mu := evalTestPoint(o)
		n := testing.AllocsPerRun(runs, func() {
			p := fresh[0]
			fresh = fresh[1:]
			p.F(x)
			p.G(x)
			p.H(x)
			p.Hess(x, lam, mu)
		})
		if n != 0 {
			t.Errorf("%s: the first evaluations through a fresh Problem() allocate %v times, want 0", name, n)
		}
	}
}

// BenchmarkNewtonSystem meters one interior-point iteration's
// evaluation and assembly work on case118 and case300 — objective,
// constraints with their Jacobians, Hessian, and the Newton KKT matrix
// stamped into its factor's packed layout — through a real Stepper held
// near its fixed point (unreachable tolerances, as the allocation
// harness does): "assemble" without the factorization, "factor" with
// it, as Step factors before its inertia check. The point cache is
// dropped before every pass so each one recomputes the per-point
// quantities as an iteration at a new iterate does. Any allocation in
// a steady pass fails the benchmark.
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
			for i := 0; i < 12; i++ {
				if done, err := s.Step(); done {
					b.Fatalf("stepper finished during warm-up (iteration %d): %v", i, err)
				}
			}
			assemble := func() {
				sc.xAt = sc.xAt[:0]
				s.Assemble()
			}
			factor := func() {
				assemble()
				if _, err := s.Factor(); err != nil {
					b.Fatal(err)
				}
			}
			for _, pass := range []struct {
				name string
				run  func()
			}{{"assemble", assemble}, {"factor", factor}} {
				b.Run(pass.name, func(b *testing.B) {
					if !raceEnabled {
						if n := testing.AllocsPerRun(10, pass.run); n != 0 {
							b.Fatalf("a steady %s pass allocates %v times, want 0", pass.name, n)
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						pass.run()
					}
				})
			}
		})
	}
}

// BenchmarkColdSolve times one cold solve of case118 and case300 at
// 1.02× nominal load through the grid's shared KKT cache — the
// in-process number PERFORMANCE.md compares across kernel changes
// (run it with GOMAXPROCS=1, alternating builds).
func BenchmarkColdSolve(b *testing.B) {
	for _, c := range []*grid.Case{grid.Case118(), grid.Case300()} {
		b.Run(c.Name, func(b *testing.B) {
			o := Prepare(c)
			fac := make([]float64, c.NB())
			for i := range fac {
				fac[i] = 1.02
			}
			if _, err := o.Perturb(fac).Solve(nil, Options{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Perturb(fac).Solve(nil, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
