package opf

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
)

// SolveWarm is the one warm→cold routine: every branch of its
// accounting is pinned against plain Solve calls on the same instance.
func TestSolveWarmAccounting(t *testing.T) {
	o := Prepare(grid.Case9())
	cold, err := o.Solve(nil, Options{})
	if err != nil || !cold.Converged {
		t.Fatalf("cold solve failed: %v", err)
	}
	same := func(what string, got *Result, want *Result) {
		t.Helper()
		if got.Iterations != want.Iterations || got.Cost != want.Cost || got.Converged != want.Converged {
			t.Fatalf("%s: result (%v, it=%d, cost=%v) != plain solve (%v, it=%d, cost=%v)", what,
				got.Converged, got.Iterations, got.Cost, want.Converged, want.Iterations, want.Cost)
		}
	}

	// No start: the cold solve, neither warm nor a restart.
	out := o.SolveWarm(nil, Options{})
	if out.WarmAccepted || out.Restarted || out.Warm != nil || out.Err != nil || out.RestartTime != 0 || out.SolveTime <= 0 {
		t.Fatalf("no start: %+v", out)
	}
	same("no start", out.Result, cold)

	// A good start is accepted without a restart.
	exact := &Start{X: cold.X, Lam: cold.Lam, Mu: cold.Mu, Z: cold.Z}
	warm, err := o.Solve(exact, Options{})
	if err != nil || !warm.Converged {
		t.Fatalf("exact warm solve failed: %v", err)
	}
	out = o.SolveWarm(exact, Options{})
	if !out.WarmAccepted || out.Restarted || out.Warm != nil || out.Err != nil || out.RestartTime != 0 {
		t.Fatalf("good start: %+v", out)
	}
	same("good start", out.Result, warm)
	if warm.Iterations >= cold.Iterations {
		t.Fatalf("exact start took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}

	// A start that cannot converge in the budget restarts cold; the
	// accepted result is the cold solve's.
	// (Alternating near-zero/huge voltage magnitudes with wild angles and
	// multipliers: hits the iteration limit on case9.)
	lay := o.Lay
	far := &Start{X: make(la.Vector, lay.NX), Lam: make(la.Vector, lay.NEq), Mu: make(la.Vector, lay.NIq), Z: make(la.Vector, lay.NIq)}
	for i := 0; i < lay.NB; i++ {
		far.X[lay.VaOff+i] = float64(i) * 3
		far.X[lay.VmOff+i] = 1e-6
		if i%2 == 1 {
			far.X[lay.VmOff+i] = 1e4
		}
	}
	for i := range far.Lam {
		far.Lam[i] = -1e7
	}
	for i := range far.Mu {
		far.Mu[i], far.Z[i] = 1e-8, 1e-8
	}
	rejected, err := o.Solve(far, Options{})
	if err == nil && rejected.Converged {
		t.Fatal("the bad start converged; no restart to observe")
	}
	out = o.SolveWarm(far, Options{})
	if out.WarmAccepted || !out.Restarted || out.Err != nil || out.RestartTime <= 0 || out.SolveTime <= 0 {
		t.Fatalf("bad start: %+v", out)
	}
	same("bad start", out.Result, cold)
	same("bad start, rejected attempt", out.Warm, rejected)

	// Nothing converges: the terminal error and the cold attempt's
	// result are reported, never a nil Result.
	out = o.SolveWarm(far, Options{MaxIter: 2})
	if out.Err == nil || out.Result == nil || out.Result.Converged || out.WarmAccepted || !out.Restarted {
		t.Fatalf("both attempts failing: %+v", out)
	}
}
