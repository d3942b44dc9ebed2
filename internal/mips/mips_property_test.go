package mips

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
	"repro/internal/sparse"
)

// randomConvexQP builds min ½xᵀQx + cᵀx s.t. Ax = b with Q symmetric
// positive definite, and also returns the exact solution from the dense
// KKT system [[Q Aᵀ],[A 0]]·[x;λ] = [-c; b].
func randomConvexQP(r *rand.Rand, n, m int) (*Problem, la.Vector) {
	// Q = LLᵀ, L lower triangular with its diagonal shifted by 2.
	l := la.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, r.NormFloat64())
		}
		l.Set(i, i, l.At(i, i)+2)
	}
	q := la.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			q.Set(i, j, s)
		}
	}
	c := make(la.Vector, n)
	for i := range c {
		c[i] = r.NormFloat64()
	}
	a := la.NewMatrix(m, n)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	b := make(la.Vector, m)
	for i := range b {
		b[i] = r.NormFloat64()
	}

	// Dense KKT reference solution.
	kkt := la.NewMatrix(n+m, n+m)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kkt.Set(i, j, q.At(i, j))
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			kkt.Set(n+i, j, a.At(i, j))
			kkt.Set(j, n+i, a.At(i, j))
		}
	}
	rhs := make(la.Vector, n+m)
	for i := 0; i < n; i++ {
		rhs[i] = -c[i]
	}
	for i := 0; i < m; i++ {
		rhs[n+i] = b[i]
	}
	ref, err := la.Solve(kkt, rhs)
	if err != nil {
		return nil, nil
	}

	qs := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := q.At(i, j); v != 0 {
				qs.Append(i, j, v)
			}
		}
	}
	qcsc := qs.ToCSC()
	ab := sparse.NewBuilder(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if v := a.At(i, j); v != 0 {
				ab.Append(i, j, v)
			}
		}
	}
	acsc := ab.ToCSC()

	p := &Problem{
		NX: n,
		F: func(x la.Vector) (float64, la.Vector) {
			qx := make(la.Vector, n)
			qcsc.MulVecInto(qx, x)
			f := 0.5*x.Dot(qx) + c.Dot(x)
			return f, qx.Add(c)
		},
		G: func(x la.Vector) (la.Vector, *sparse.CSC) {
			g := make(la.Vector, m)
			acsc.MulVecInto(g, x)
			g.AddScaled(-1, b)
			return g, acsc
		},
		Hess: func(x, lam, mu la.Vector) *sparse.CSC { return qcsc },
	}
	return p, la.Vector(ref[:n])
}

// Property: MIPS recovers the exact solution of random equality-
// constrained convex QPs (verified against a dense KKT solve).
func TestQPMatchesDenseKKT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		m := 1 + r.Intn(n-1)
		p, ref := randomConvexQP(r, n, m)
		if p == nil {
			return true // degenerate draw
		}
		res, err := Solve(p, make(la.Vector, n), nil, Options{})
		if err != nil {
			return false
		}
		return res.X.Clone().AddScaled(-1, ref).NormInf() < 1e-5*(1+ref.NormInf())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding inactive bounds far from the solution changes nothing.
func TestInactiveBoundsAreNeutral(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		m := 1 + r.Intn(n-1)
		p, ref := randomConvexQP(r, n, m)
		if p == nil {
			return true
		}
		free, err := Solve(p, make(la.Vector, n), nil, Options{})
		if err != nil {
			return false
		}
		p.XMin = make(la.Vector, n)
		p.XMax = make(la.Vector, n)
		for i := 0; i < n; i++ {
			p.XMin[i] = ref[i] - 100
			p.XMax[i] = ref[i] + 100
		}
		bounded, err := Solve(p, make(la.Vector, n), nil, Options{})
		if err != nil {
			return false
		}
		return bounded.X.Clone().AddScaled(-1, free.X).NormInf() < 1e-4*(1+free.X.NormInf())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Failure injection: an objective that degenerates to NaN must produce a
// clean error, never a panic or a bogus "converged" result.
func TestNaNObjectiveFailsCleanly(t *testing.T) {
	p := &Problem{
		NX: 1,
		F: func(x la.Vector) (float64, la.Vector) {
			if x[0] > 0.5 {
				return math.NaN(), la.Vector{math.NaN()}
			}
			return -x[0], la.Vector{-1} // pushes x upward into the NaN zone
		},
		Hess: func(x, lam, mu la.Vector) *sparse.CSC {
			return sparse.NewBuilder(1, 1).ToCSC()
		},
		XMin: la.Vector{0},
		XMax: la.Vector{10},
	}
	res, err := Solve(p, la.Vector{0}, nil, Options{MaxIter: 30})
	if err == nil && res.Converged {
		t.Fatal("NaN objective reported as converged")
	}
}

// infeasibleEqualities asks for x = 0 and x = 1 simultaneously.
func infeasibleEqualities() *Problem {
	b := sparse.NewBuilder(2, 1)
	b.Append(0, 0, 1)
	b.Append(1, 0, 1)
	jac := b.ToCSC()
	return &Problem{
		NX: 1,
		F: func(x la.Vector) (float64, la.Vector) {
			return x[0] * x[0], la.Vector{2 * x[0]}
		},
		G: func(x la.Vector) (la.Vector, *sparse.CSC) {
			return la.Vector{x[0], x[0] - 1}, jac
		},
		Hess: func(x, lam, mu la.Vector) *sparse.CSC {
			return twoI(1)
		},
	}
}

// Failure injection: an infeasible equality set must end in one of the
// failure verdicts, not claim success.
func TestInfeasibleEqualities(t *testing.T) {
	res, err := Solve(infeasibleEqualities(), la.Vector{0.5}, nil, Options{MaxIter: 25})
	if err == nil && res.Converged {
		t.Fatal("infeasible problem reported as converged")
	}
	if err != nil && !errors.Is(err, ErrMaxIter) && !errors.Is(err, ErrNumeric) && !errors.Is(err, ErrStalled) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

// TestStallVerdict: with the default iteration limit, the infeasible
// equality set ends on the stalled-feasibility rule, not after 150
// iterations. Its feasibility condition max(|x|, |x−1|)/(1+|x|) is never
// below 1/3, its value at the start x = ½, so the best value is flat from
// the first iterate and the rule fires as soon as the window is full.
func TestStallVerdict(t *testing.T) {
	res, err := Solve(infeasibleEqualities(), la.Vector{0.5}, nil, Options{})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if res.Converged || res.Iterations != stallWindow {
		t.Fatalf("stalled after %d iterations (converged %v), want %d", res.Iterations, res.Converged, stallWindow)
	}
}
