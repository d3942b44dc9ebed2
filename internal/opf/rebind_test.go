package opf

import (
	"testing"

	"repro/internal/grid"
)

// TestRebindMatchesPrepare: solving a load-perturbed variant derived
// from a base OPF with Perturb must give bit-identical results to a
// fresh Prepare of the perturbed case — the correctness contract of the
// batch engine's structure-reuse cache.
func TestRebindMatchesPrepare(t *testing.T) {
	c := grid.Case9()
	base := Prepare(c)

	cc := c.Clone()
	factors := make([]float64, c.NB())
	for i := range factors {
		factors[i] = 1.05 - 0.01*float64(i%3)
	}
	cc.ScaleLoads(factors)

	rFresh, err := Prepare(cc).Solve(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rReuse, err := base.Perturb(factors).Solve(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rFresh.Converged || !rReuse.Converged {
		t.Fatalf("convergence mismatch: fresh=%v reuse=%v", rFresh.Converged, rReuse.Converged)
	}
	if rFresh.Iterations != rReuse.Iterations {
		t.Fatalf("iterations: fresh=%d reuse=%d", rFresh.Iterations, rReuse.Iterations)
	}
	if rFresh.Cost != rReuse.Cost {
		t.Fatalf("cost: fresh=%v reuse=%v", rFresh.Cost, rReuse.Cost)
	}
	for i := range rFresh.X {
		if rFresh.X[i] != rReuse.X[i] {
			t.Fatalf("x[%d]: fresh=%v reuse=%v", i, rFresh.X[i], rReuse.X[i])
		}
	}

	// The derived instance must not have mutated the base: a base-case
	// solve through the original still matches a fresh base solve.
	rBase, err := base.Solve(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rBase2, err := Prepare(c).Solve(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rBase.Cost != rBase2.Cost || rBase.Iterations != rBase2.Iterations {
		t.Fatalf("base instance disturbed by Perturb: %v/%d vs %v/%d",
			rBase.Cost, rBase.Iterations, rBase2.Cost, rBase2.Iterations)
	}
}
