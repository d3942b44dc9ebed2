package mips_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/opf"
)

// TestInertiaCorrectionOnlyWhileBarrierLarge pins where the inertia
// correction acts. A cold nominal-load solve of case14 or case118 meets
// a KKT matrix of wrong inertia in its first iterations, while the
// barrier is large: it corrects it, and converges in fewer iterations
// than the uncorrected steps of mips.m took (27 and 34), at the optimum
// they reached. Warm solves from that optimum start with the barrier far
// below the correction's threshold and make none: of a 2 % heavier
// load, and on case118 of the outage of branch 31 as well, whose warm
// solve meets wrong inertia there (3 corrections without the threshold).
func TestInertiaCorrectionOnlyWhileBarrierLarge(t *testing.T) {
	for _, tc := range []struct {
		c              *grid.Case
		uncorrected    int
		uncorrectedObj float64
		outages        []int
	}{
		{grid.Case14(), 27, 8081.419656231936, nil},
		{grid.Case118(), 34, 129660.69120208148, []int{31}},
	} {
		t.Run(tc.c.Name, func(t *testing.T) {
			o := opf.Prepare(tc.c)
			cold, err := o.Solve(nil, opf.Options{})
			if err != nil || !cold.Converged {
				t.Fatalf("cold solve failed: %v", err)
			}
			if cold.InertiaCorrections == 0 || cold.Iterations >= tc.uncorrected {
				t.Errorf("cold solve took %d iterations and %d inertia corrections, want fewer than %d iterations and some corrections",
					cold.Iterations, cold.InertiaCorrections, tc.uncorrected)
			}
			if d := math.Abs(cold.Cost-tc.uncorrectedObj) / tc.uncorrectedObj; d > 1e-9 {
				t.Errorf("cold cost %v is %.2g from the uncorrected solve's %v", cold.Cost, d, tc.uncorrectedObj)
			}

			factors := make([]float64, tc.c.NB())
			for i := range factors {
				factors[i] = 1.02
			}
			warms := map[string]*opf.OPF{"2 % heavier load": o.Perturb(factors)}
			for _, b := range tc.outages {
				cls, err := o.RebindOutage(b)
				if err != nil {
					t.Fatal(err)
				}
				warms[fmt.Sprintf("branch %d out", b)] = cls
			}
			start := &opf.Start{X: cold.X, Lam: cold.Lam, Mu: cold.Mu, Z: cold.Z}
			for name, inst := range warms {
				warm, err := inst.Solve(inst.AdaptStart(start), opf.Options{})
				if err != nil || !warm.Converged {
					t.Fatalf("%s: warm solve failed: %v", name, err)
				}
				if warm.InertiaCorrections != 0 {
					t.Errorf("%s: warm solve made %d inertia corrections, want 0", name, warm.InertiaCorrections)
				}
			}
		})
	}
}
