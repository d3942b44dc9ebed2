package opf

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// productionFill returns the analysis a real cold solve of c publishes:
// the LDLᵀ analysis of the reduced KKT pattern MIPS factors.
func productionFill(t *testing.T, c *grid.Case) *sparse.LDLSymbolic {
	t.Helper()
	o := Prepare(c)
	_, _ = o.Solve(nil, Options{MaxIter: 1}) // one iteration never converges; the analysis is what is wanted
	sym := o.KKTSymbolic()
	if sym == nil {
		t.Fatalf("%s: the first iteration published no analysis", c.Name)
	}
	return sym
}

// rcmFill is what reverse Cuthill–McKee, the ordering minimum degree
// replaced, cost on each embedded system's production KKT pattern:
// nnz(L)+n and the flops of one factorization, as BENCH_kkt.json's
// production_fill section recorded them (ldl_nnz_rcm, flops_rcm) before
// RCM was deleted.
var rcmFill = []struct {
	build      func() *grid.Case
	nnz, flops int
}{
	{grid.Case5, 177, 1450},
	{grid.Case9, 283, 2264},
	{grid.Case14, 540, 5259},
	{grid.Case30, 1303, 15390},
	{grid.Case57, 4040, 86203},
	{grid.Case118, 7503, 139170},
	{grid.Case300, 38080, 3024883},
	{grid.Case1354, 1017617, 581661668},
}

// TestKKTOrderingFill pins the one ordering policy on the matrix it is
// about: Prepare analyzes under minimum degree, and on every embedded
// system its factor stores fewer entries and costs fewer flops than
// RCM's did on the production KKT pattern.
func TestKKTOrderingFill(t *testing.T) {
	for _, rcm := range rcmFill {
		c := rcm.build()
		if got := Prepare(c).Ordering(); got != sparse.OrderMinDegree {
			t.Errorf("%s prepared with %v, want %v", c.Name, got, sparse.OrderMinDegree)
		}
		md := productionFill(t, c)
		t.Logf("%s: n=%d nnz(KKT)=%d nnz(L)+n rcm=%d mindegree=%d, flops rcm=%d mindegree=%d",
			c.Name, md.N(), md.PatternNNZ(), rcm.nnz, md.NNZ(), rcm.flops, md.Flops())
		if md.NNZ() >= rcm.nnz || md.Flops() >= rcm.flops {
			t.Errorf("%s: minimum degree's nnz(L)+n %d and flops %d are not both below RCM's %d and %d",
				c.Name, md.NNZ(), md.Flops(), rcm.nnz, rcm.flops)
		}
	}
}

// TestRebindOutageKeepsConfiguredOrdering: derived topology classes
// report the base instance's ordering and factor on its analysis, made
// once by the base's first solve.
func TestRebindOutageKeepsConfiguredOrdering(t *testing.T) {
	o := Prepare(grid.Case57())
	_, _ = o.Solve(nil, Options{MaxIter: 1})
	d, err := o.RebindOutage(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ordering() != o.Ordering() || d.KKTSymbolic() != o.KKTSymbolic() || o.KKTSymbolic() == nil {
		t.Errorf("outage class ordering %v on analysis %p, base %v on %p", d.Ordering(), d.KKTSymbolic(), o.Ordering(), o.KKTSymbolic())
	}
}
