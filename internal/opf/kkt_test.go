package opf

import (
	"testing"

	"repro/internal/grid"
)

// TestKKTCacheSharedAcrossPerturbations pins the cross-solve seam: all
// instances derived from one Prepare share its KKT cache, so a sweep
// computes the fill-reducing ordering and the LDLᵀ symbolic analysis
// once — every factorization after the very first across the whole
// sweep, one per iteration and one per inertia correction, is a numeric
// refactorization.
func TestKKTCacheSharedAcrossPerturbations(t *testing.T) {
	base := Prepare(grid.Case9())
	nb := base.Lay.NB
	factors := 0
	for _, s := range []float64{0.95, 1.0, 1.05} {
		fac := make([]float64, nb)
		for i := range fac {
			fac[i] = s
		}
		r, err := base.Perturb(fac).Solve(nil, Options{})
		if err != nil {
			t.Fatalf("scale %v: %v", s, err)
		}
		factors += r.Iterations + r.InertiaCorrections
	}
	st := base.KKTStats()
	if st.Orderings != 1 {
		t.Fatalf("orderings = %d, want 1 for the whole sweep", st.Orderings)
	}
	if st.Analyses != 1 {
		t.Fatalf("analyses = %d, want 1 (shared across the sweep)", st.Analyses)
	}
	if st.Refactors != uint64(factors-1) {
		t.Fatalf("refactors = %d, want %d", st.Refactors, factors-1)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0", st.Fallbacks)
	}
}
