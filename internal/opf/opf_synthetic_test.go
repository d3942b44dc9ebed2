package opf

import (
	"testing"

	"repro/internal/grid"
)

// Load growth drives cost up monotonically (economic sanity of the
// solver across the paper's sampling range).
func TestCostMonotoneInLoad(t *testing.T) {
	prev := 0.0
	for _, s := range []float64{0.9, 1.0, 1.1} {
		c := grid.Case9()
		fac := make([]float64, c.NB())
		for i := range fac {
			fac[i] = s
		}
		c.ScaleLoads(fac)
		r, err := Prepare(c).Solve(nil, Options{})
		if err != nil {
			t.Fatalf("scale %v: %v", s, err)
		}
		if r.Cost <= prev {
			t.Fatalf("cost not increasing: %.2f after %.2f", r.Cost, prev)
		}
		prev = r.Cost
	}
}

// Infeasible problems (demand far beyond capacity) must fail cleanly.
func TestInfeasibleOPFFailsCleanly(t *testing.T) {
	c := grid.Case9()
	fac := make([]float64, c.NB())
	for i := range fac {
		fac[i] = 10
	}
	c.ScaleLoads(fac)
	r, err := Prepare(c).Solve(nil, Options{MaxIter: 40})
	if err == nil && r.Converged {
		t.Fatal("10x load reported feasible")
	}
}
