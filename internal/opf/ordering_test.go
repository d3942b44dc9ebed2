package opf

import (
	"testing"

	"repro/internal/casegen"
	"repro/internal/grid"
	"repro/internal/sparse"
)

// productionFill returns the analysis a real cold solve of c publishes
// under ord: the LDLᵀ analysis of the reduced KKT pattern MIPS factors.
func productionFill(t *testing.T, c *grid.Case, ord sparse.Ordering) *sparse.LDLSymbolic {
	t.Helper()
	o := Prepare(c)
	o.SetOrdering(ord)
	_, _ = o.Solve(nil, Options{MaxIter: 1}) // one iteration never converges; the analysis is what is wanted
	sym := o.KKTSymbolic()
	if sym == nil {
		t.Fatalf("%s %v: the first iteration published no analysis", c.Name, ord)
	}
	return sym
}

// TestKKTOrderingFill pins the one ordering policy on the matrix it is
// about: Prepare analyzes under minimum degree, and on every embedded
// system its factor stores fewer entries and costs fewer flops than
// RCM's on the production KKT pattern.
func TestKKTOrderingFill(t *testing.T) {
	for _, name := range casegen.EmbeddedNames() {
		c, err := casegen.Paper(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := Prepare(c).Ordering(); got != sparse.OrderMinDegree {
			t.Errorf("%s prepared with %v, want %v", name, got, sparse.OrderMinDegree)
		}
		rcm, md := productionFill(t, c, sparse.OrderRCM), productionFill(t, c, sparse.OrderMinDegree)
		t.Logf("%s: n=%d nnz(KKT)=%d nnz(L)+n rcm=%d mindegree=%d, flops rcm=%d mindegree=%d",
			name, md.N(), md.PatternNNZ(), rcm.NNZ(), md.NNZ(), rcm.Flops(), md.Flops())
		if md.NNZ() >= rcm.NNZ() || md.Flops() >= rcm.Flops() {
			t.Errorf("%s: minimum degree's nnz(L)+n %d and flops %d are not both below RCM's %d and %d",
				name, md.NNZ(), md.Flops(), rcm.NNZ(), rcm.Flops())
		}
	}
}

// TestAutoOrderingSolveMatchesFixed: the ordering only picks a
// permutation; the optimum under Prepare's own must match forcing either
// alternative (and all must converge) — the ordering is a performance
// choice, never a results one.
func TestAutoOrderingSolveMatchesFixed(t *testing.T) {
	if testing.Short() {
		t.Skip("case57 solves in -short")
	}
	c := grid.Case57()
	ra, err := Prepare(c).Solve(nil, Options{})
	if err != nil || !ra.Converged {
		t.Fatalf("default solve: %v", err)
	}
	for _, ord := range []sparse.Ordering{sparse.OrderRCM, sparse.OrderNatural} {
		fixed := Prepare(c)
		fixed.SetOrdering(ord)
		rf, err := fixed.Solve(nil, Options{})
		if err != nil || !rf.Converged {
			t.Fatalf("%v solve: %v", ord, err)
		}
		// Different elimination orders round differently, so compare to
		// solver tolerance, not bitwise.
		if d := (rf.Cost - ra.Cost) / ra.Cost; d > 1e-5 || d < -1e-5 {
			t.Errorf("%v: cost %.6f differs from the default's %.6f", ord, rf.Cost, ra.Cost)
		}
	}
}

// TestRebindOutageKeepsConfiguredOrdering: derived topology classes
// inherit the ordering of the base instance.
func TestRebindOutageKeepsConfiguredOrdering(t *testing.T) {
	o := Prepare(grid.Case57())
	d, err := o.RebindOutage(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ordering() != o.Ordering() {
		t.Errorf("outage class ordering %v, base %v", d.Ordering(), o.Ordering())
	}
}
