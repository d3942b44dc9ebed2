package mips

import (
	"errors"
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/sparse"
)

// quadProblem: min Σ (x_i - c_i)² — unconstrained quadratic.
func quadProblem(c la.Vector) *Problem {
	n := len(c)
	return &Problem{
		NX: n,
		F: func(x la.Vector) (float64, la.Vector) {
			f := 0.0
			df := make(la.Vector, n)
			for i := range x {
				d := x[i] - c[i]
				f += d * d
				df[i] = 2 * d
			}
			return f, df
		},
		Hess: func(x, lam, mu la.Vector) *sparse.CSC {
			return twoI(n)
		},
	}
}

func TestUnconstrainedQuadratic(t *testing.T) {
	c := la.Vector{1, -2, 3}
	r, err := Solve(quadProblem(c), la.Vector{0, 0, 0}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatal("not converged")
	}
	if r.X.Clone().AddScaled(-1, c).NormInf() > 1e-6 {
		t.Fatalf("x = %v", r.X)
	}
}

// equality-constrained QP: min x²+y² s.t. x+y=1 → x=y=0.5, λ=-1.
func TestEqualityQP(t *testing.T) {
	p := &Problem{
		NX: 2,
		F: func(x la.Vector) (float64, la.Vector) {
			return x[0]*x[0] + x[1]*x[1], la.Vector{2 * x[0], 2 * x[1]}
		},
		G: func(x la.Vector) (la.Vector, *sparse.CSC) {
			b := sparse.NewBuilder(1, 2)
			b.Append(0, 0, 1)
			b.Append(0, 1, 1)
			return la.Vector{x[0] + x[1] - 1}, b.ToCSC()
		},
		Hess: func(x, lam, mu la.Vector) *sparse.CSC {
			return twoI(2)
		},
	}
	r, err := Solve(p, la.Vector{0, 0}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-0.5) > 1e-6 || math.Abs(r.X[1]-0.5) > 1e-6 {
		t.Fatalf("x = %v", r.X)
	}
	if math.Abs(r.Lam[0]-(-1)) > 1e-5 {
		t.Fatalf("lam = %v, want -1", r.Lam)
	}
}

// The documented MIPS example problem (inequality form):
// min -x1x2 - x2x3  s.t. x1²-x2²+x3² ≤ 2, x1²+x2²+x3² ≤ 10.
// Solution x* ≈ [1.58114, 2.23607, 1.58114], f* ≈ -7.0711 (second
// constraint active).
func mipsExampleProblem() *Problem {
	return &Problem{
		NX: 3,
		F: func(x la.Vector) (float64, la.Vector) {
			f := -x[0]*x[1] - x[1]*x[2]
			return f, la.Vector{-x[1], -x[0] - x[2], -x[1]}
		},
		H: func(x la.Vector) (la.Vector, *sparse.CSC) {
			h := la.Vector{
				x[0]*x[0] - x[1]*x[1] + x[2]*x[2] - 2,
				x[0]*x[0] + x[1]*x[1] + x[2]*x[2] - 10,
			}
			b := sparse.NewBuilder(2, 3)
			b.Append(0, 0, 2*x[0])
			b.Append(0, 1, -2*x[1])
			b.Append(0, 2, 2*x[2])
			b.Append(1, 0, 2*x[0])
			b.Append(1, 1, 2*x[1])
			b.Append(1, 2, 2*x[2])
			return h, b.ToCSC()
		},
		Hess: func(x, lam, mu la.Vector) *sparse.CSC {
			b := sparse.NewBuilder(3, 3)
			// d2f
			b.Append(0, 1, -1)
			b.Append(1, 0, -1)
			b.Append(1, 2, -1)
			b.Append(2, 1, -1)
			// mu1 * d2h1 + mu2 * d2h2
			b.Append(0, 0, 2*mu[0]+2*mu[1])
			b.Append(1, 1, -2*mu[0]+2*mu[1])
			b.Append(2, 2, 2*mu[0]+2*mu[1])
			return b.ToCSC()
		},
	}
}

func TestMIPSDocExample(t *testing.T) {
	r, err := Solve(mipsExampleProblem(), la.Vector{1, 1, 1}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := la.Vector{1.58114, 2.23607, 1.58114}
	if r.X.Clone().AddScaled(-1, want).NormInf() > 1e-4 {
		t.Fatalf("x = %v want %v", r.X, want)
	}
	if math.Abs(r.F-(-7.0711)) > 1e-3 {
		t.Fatalf("f = %v", r.F)
	}
	// Second constraint active, first inactive.
	if r.Mu[1] < 1e-4 || r.Mu[0] > 1e-4 {
		t.Fatalf("mu = %v, want only second active", r.Mu)
	}
}

// inequality-constrained: min (x1-1)² + (x2-2.5)²
// s.t. x1 - 2x2 + 2 ≥ 0, -x1 - 2x2 + 6 ≥ 0, -x1 + 2x2 + 2 ≥ 0, x ≥ 0.
// (scipy's canonical example; solution (1.4, 1.7))
func TestInequalityQP(t *testing.T) {
	p := &Problem{
		NX: 2,
		F: func(x la.Vector) (float64, la.Vector) {
			d0, d1 := x[0]-1, x[1]-2.5
			return d0*d0 + d1*d1, la.Vector{2 * d0, 2 * d1}
		},
		H: func(x la.Vector) (la.Vector, *sparse.CSC) {
			// h(x) ≤ 0 form.
			h := la.Vector{
				-(x[0] - 2*x[1] + 2),
				-(-x[0] - 2*x[1] + 6),
				-(-x[0] + 2*x[1] + 2),
			}
			b := sparse.NewBuilder(3, 2)
			b.Append(0, 0, -1)
			b.Append(0, 1, 2)
			b.Append(1, 0, 1)
			b.Append(1, 1, 2)
			b.Append(2, 0, 1)
			b.Append(2, 1, -2)
			return h, b.ToCSC()
		},
		Hess: func(x, lam, mu la.Vector) *sparse.CSC {
			return twoI(2)
		},
		XMin: la.Vector{0, 0},
		XMax: la.Vector{math.Inf(1), math.Inf(1)},
	}
	r, err := Solve(p, la.Vector{2, 0}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-1.4) > 1e-5 || math.Abs(r.X[1]-1.7) > 1e-5 {
		t.Fatalf("x = %v, want (1.4, 1.7)", r.X)
	}
	// The first constraint is active: positive multiplier; others ~0.
	if r.Mu[0] < 1e-4 {
		t.Errorf("active constraint multiplier = %v", r.Mu[0])
	}
	if r.Mu[1] > 1e-4 || r.Mu[2] > 1e-4 {
		t.Errorf("inactive multipliers = %v %v", r.Mu[1], r.Mu[2])
	}
}

func TestBoundsOnly(t *testing.T) {
	// min (x-5)² with x ≤ 2 → x* = 2, upper bound active.
	p := quadProblem(la.Vector{5})
	p.XMin = la.Vector{math.Inf(-1)}
	p.XMax = la.Vector{2}
	r, err := Solve(p, la.Vector{0}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-2) > 1e-5 {
		t.Fatalf("x = %v", r.X)
	}
	if r.MuUpper[0] < 1e-3 {
		t.Errorf("upper-bound multiplier %v should be active (≈6)", r.MuUpper[0])
	}
	if math.Abs(r.MuUpper[0]-6) > 1e-3 {
		t.Errorf("µ upper = %v, want 6 (= -f'(2))", r.MuUpper[0])
	}
}

func TestStartOutsideBoundsIsClipped(t *testing.T) {
	p := quadProblem(la.Vector{0})
	p.XMin = la.Vector{-1}
	p.XMax = la.Vector{1}
	r, err := Solve(p, la.Vector{100}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]) > 1e-6 {
		t.Fatalf("x = %v", r.X)
	}
}

func TestWarmStartConvergesFaster(t *testing.T) {
	p := mipsExampleProblem()
	cold, err := Solve(p, la.Vector{1, 1, 1}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws := &WarmStart{X: cold.X, Lam: cold.Lam, Mu: cold.Mu, Z: cold.Z}
	warm, err := Solve(p, la.Vector{1, 1, 1}, ws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("warm start took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
	if warm.X.Clone().AddScaled(-1, cold.X).NormInf() > 1e-5 {
		t.Fatalf("warm solution drifted: %v vs %v", warm.X, cold.X)
	}
}

func TestWarmStartWithInequalities(t *testing.T) {
	// Re-solve the inequality QP from its own solution.
	p := quadProblem(la.Vector{5, 5})
	p.XMin = la.Vector{0, 0}
	p.XMax = la.Vector{2, 3}
	cold, err := Solve(p, la.Vector{1, 1}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(p, la.Vector{1, 1},
		&WarmStart{X: cold.X, Lam: cold.Lam, Mu: cold.Mu, Z: cold.Z}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm %d > cold %d iterations", warm.Iterations, cold.Iterations)
	}
}

func TestTraceRecorded(t *testing.T) {
	r, err := Solve(mipsExampleProblem(), la.Vector{1, 1, 1}, nil, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	last := r.Trace[len(r.Trace)-1]
	if last.FeasCond > 1e-6 || last.GradCond > 1e-6 {
		t.Fatalf("final trace not converged: %+v", last)
	}
	// Conditions should broadly decrease from start to end.
	first := r.Trace[0]
	if last.FeasCond > first.FeasCond && first.FeasCond > 1e-9 {
		t.Errorf("feasibility did not improve: %v -> %v", first.FeasCond, last.FeasCond)
	}
}

func TestMaxIterError(t *testing.T) {
	p := mipsExampleProblem()
	_, err := Solve(p, la.Vector{1, 1, 1}, nil, Options{MaxIter: 2})
	if !errors.Is(err, ErrMaxIter) {
		t.Fatalf("err = %v, want ErrMaxIter", err)
	}
}

func TestMultiplierSigns(t *testing.T) {
	// All inequality multipliers and slacks must stay positive.
	p := quadProblem(la.Vector{5, -5})
	p.XMin = la.Vector{-1, -1}
	p.XMax = la.Vector{1, 1}
	r, err := Solve(p, la.Vector{0, 0}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range r.Mu {
		if v <= 0 {
			t.Errorf("mu[%d] = %v not positive", k, v)
		}
	}
	for k, v := range r.Z {
		if v <= 0 {
			t.Errorf("z[%d] = %v not positive", k, v)
		}
	}
	// Complementarity: z·mu ≈ 0 element-wise at the solution.
	for k := range r.Mu {
		if r.Z[k]*r.Mu[k] > 1e-4 {
			t.Errorf("complementarity z[%d]*mu[%d] = %v", k, k, r.Z[k]*r.Mu[k])
		}
	}
}

func TestJtDiagJ(t *testing.T) {
	b := sparse.NewBuilder(2, 3)
	b.Append(0, 0, 1)
	b.Append(0, 2, 2)
	b.Append(1, 1, 3)
	j := b.ToCSC()
	m := jtDiagJ(j, la.Vector{2, 1})
	// JᵀWJ = [[2,0,4],[0,9,0],[4,0,8]]
	want := [][]float64{{2, 0, 4}, {0, 9, 0}, {4, 0, 8}}
	for i := 0; i < 3; i++ {
		for k := 0; k < 3; k++ {
			if math.Abs(entry(m, i, k)-want[i][k]) > 1e-14 {
				t.Fatalf("JtWJ[%d,%d] = %v want %v", i, k, entry(m, i, k), want[i][k])
			}
		}
	}
}

func TestGammaShrinks(t *testing.T) {
	r, err := Solve(mipsExampleProblem(), la.Vector{1, 1, 1}, nil, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	// Equality-only problem: gamma stays at its initial value (no
	// inequalities). Use a bounded problem to observe barrier decay.
	p := quadProblem(la.Vector{5})
	p.XMin = la.Vector{0}
	p.XMax = la.Vector{2}
	r2, err := Solve(p, la.Vector{1}, nil, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := r2.Trace
	if len(tr) < 2 {
		t.Fatal("too few iterations to check barrier decay")
	}
	if tr[len(tr)-1].Gamma >= tr[0].Gamma {
		t.Fatalf("gamma did not shrink: %v -> %v", tr[0].Gamma, tr[len(tr)-1].Gamma)
	}
}

// TestKKTSolveStatsReported pins the reuse accounting: a solve wired to
// a shared SymbolicCache folds its per-iteration counters in, with one
// ordering and one analysis per pattern and refactors for the remaining
// iterations.
func TestKKTSolveStatsReported(t *testing.T) {
	c := sparse.NewSymbolicCache()
	r, err := Solve(mipsExampleProblem(), la.Vector{1, 1, 1}, nil, Options{KKT: c})
	if err != nil {
		t.Fatal(err)
	}
	want := sparse.CacheStats{Analyses: 1, Refactors: uint64(r.Iterations - 1), Orderings: 1}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v (fixed KKT pattern: one analysis, then one refactor per remaining iteration)", st, want)
	}
	// A second solve through the same cache reuses the whole analysis.
	r2, err := Solve(mipsExampleProblem(), la.Vector{1, 1, 1}, nil, Options{KKT: c})
	if err != nil {
		t.Fatal(err)
	}
	want.Refactors += uint64(r2.Iterations)
	if st := c.Stats(); st != want {
		t.Fatalf("cross-solve stats = %+v, want %+v", st, want)
	}
}
