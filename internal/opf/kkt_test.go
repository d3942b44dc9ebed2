package opf

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// TestKKTCacheSharedAcrossPerturbations pins the cross-solve seam: all
// instances derived from one Prepare share its KKT cache, so a sweep
// computes the fill-reducing ordering and the LDLᵀ symbolic analysis
// once — every iteration after the very first across the whole
// sweep is a numeric refactorization.
func TestKKTCacheSharedAcrossPerturbations(t *testing.T) {
	base := Prepare(grid.Case9())
	nb := base.Lay.NB
	totalIters := 0
	for _, s := range []float64{0.95, 1.0, 1.05} {
		fac := make([]float64, nb)
		for i := range fac {
			fac[i] = s
		}
		r, err := base.Perturb(fac).Solve(nil, Options{})
		if err != nil {
			t.Fatalf("scale %v: %v", s, err)
		}
		totalIters += r.Iterations
	}
	st := base.KKTStats()
	if st.Orderings != 1 {
		t.Fatalf("orderings = %d, want 1 for the whole sweep", st.Orderings)
	}
	if st.Analyses != 1 {
		t.Fatalf("analyses = %d, want 1 (shared across the sweep)", st.Analyses)
	}
	if st.Refactors != uint64(totalIters-1) {
		t.Fatalf("refactors = %d, want %d", st.Refactors, totalIters-1)
	}
	if st.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0", st.Fallbacks)
	}
}

// TestKKTOrderingChoices: the solution must not depend on the
// fill-reducing ordering.
func TestKKTOrderingChoices(t *testing.T) {
	ref, err := Prepare(grid.Case9()).Solve(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ord := range []sparse.Ordering{sparse.OrderNatural, sparse.OrderRCM} {
		o := Prepare(grid.Case9())
		o.SetOrdering(ord)
		r, err := o.Solve(nil, Options{})
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if !r.Converged {
			t.Fatalf("%v: did not converge", ord)
		}
		if d := math.Abs(r.Cost-ref.Cost) / (1 + math.Abs(ref.Cost)); d > 1e-7 {
			t.Fatalf("%v: cost %v differs from the default ordering's %v", ord, r.Cost, ref.Cost)
		}
		if got := o.KKTStats().Orderings; got != 1 {
			t.Fatalf("%v: orderings = %d, want 1", ord, got)
		}
	}
}
