package opf

import (
	"testing"

	"repro/internal/casegen"
	"repro/internal/grid"
	"repro/internal/sparse"
)

// productionFill returns the analysis a real cold solve of c publishes
// under ord: the reduced KKT pattern MIPS factors, pivot-shaped.
func productionFill(t *testing.T, c *grid.Case, ord sparse.Ordering) *sparse.Symbolic {
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
// about: Prepare analyzes under AMD, and on every embedded system AMD's
// L+U on the production KKT pattern is at most 1.05× RCM's (measured:
// case14 +4.3 % is the only system where it is not the smaller).
func TestKKTOrderingFill(t *testing.T) {
	for _, name := range casegen.EmbeddedNames() {
		if testing.Short() && name == "case1354" {
			continue // its two analyses are ~10 s
		}
		c, err := casegen.Paper(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := Prepare(c).Ordering(); got != sparse.OrderAMD {
			t.Errorf("%s prepared with %v, want amd", name, got)
		}
		rcm, amd := productionFill(t, c, sparse.OrderRCM), productionFill(t, c, sparse.OrderAMD)
		t.Logf("%s: n=%d nnz(KKT)=%d L+U rcm=%d amd=%d", name, amd.N(), amd.PatternNNZ(), rcm.NNZ(), amd.NNZ())
		if float64(amd.NNZ()) > 1.05*float64(rcm.NNZ()) {
			t.Errorf("%s: AMD L+U %d exceeds 1.05 × RCM's %d on the production pattern", name, amd.NNZ(), rcm.NNZ())
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
