package opf

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
)

func solveCase(t *testing.T, c *grid.Case) *Result {
	t.Helper()
	o := Prepare(c)
	r, err := o.Solve(nil, Options{})
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	if !r.Converged {
		t.Fatalf("%s: not converged", c.Name)
	}
	return r
}

// Reference objective values from Matpower (runopf on the standard cases).
func TestCase9KnownOptimum(t *testing.T) {
	r := solveCase(t, grid.Case9())
	if math.Abs(r.Cost-5296.69)/5296.69 > 0.01 {
		t.Fatalf("case9 cost = %.2f, want ≈5296.69", r.Cost)
	}
}

// TestPublishedOptima pins cold optima at nominal load to the precision
// the published values are quoted with: within half a unit of the last
// quoted digit. case57 runs with every RateA zeroed, the configuration
// Matpower documents; its derived ratings bind and move the optimum to
// 42,065.93.
func TestPublishedOptima(t *testing.T) {
	unrated := grid.Case57()
	for l := range unrated.Branches {
		unrated.Branches[l].RateA = 0
	}
	for _, tc := range []struct {
		c    *grid.Case
		want float64
	}{
		{grid.Case9(), 5296.69},
		{unrated, 41737.79},
		{grid.Case118(), 129660.69},
	} {
		if r := solveCase(t, tc.c); math.Abs(r.Cost-tc.want) > 0.005 {
			t.Errorf("%s: cold optimum %.3f, want %.2f ± 0.005", tc.c.Name, r.Cost, tc.want)
		}
	}
}

// case14 reads 8,081.420 against the published 8,081.53 (1.4e-5 off),
// so it keeps a 1 % check until its provenance is settled (ROADMAP
// 8(d)).
func TestCase14KnownOptimum(t *testing.T) {
	r := solveCase(t, grid.Case14())
	if math.Abs(r.Cost-8081.53)/8081.53 > 0.01 {
		t.Fatalf("case14 cost = %.2f, want ≈8081.53", r.Cost)
	}
}

func TestCase5KnownOptimum(t *testing.T) {
	r := solveCase(t, grid.Case5())
	if math.Abs(r.Cost-17551.89)/17551.89 > 0.02 {
		t.Fatalf("case5 cost = %.2f, want ≈17551.9", r.Cost)
	}
}

func TestSolutionFeasibility(t *testing.T) {
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14(), grid.Case5()} {
		o := Prepare(c)
		r, err := o.Solve(nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		g, _ := o.Equality(r.X)
		h, _ := o.Inequality(r.X)
		if g.NormInf() > 1e-5 {
			t.Errorf("%s: power balance violated by %v", c.Name, g.NormInf())
		}
		for k, v := range h {
			if v > 1e-5 {
				t.Errorf("%s: flow limit %d violated by %v", c.Name, k, v)
			}
		}
		// Bounds.
		for i := 0; i < o.Lay.NB; i++ {
			vm := r.Vm[i]
			if vm < c.Buses[i].Vmin-1e-6 || vm > c.Buses[i].Vmax+1e-6 {
				t.Errorf("%s: bus %d Vm %.4f outside [%.2f,%.2f]", c.Name, i, vm, c.Buses[i].Vmin, c.Buses[i].Vmax)
			}
		}
		gens := c.ActiveGens()
		for gi, gen := range gens {
			if r.Pg[gi] < gen.Pmin-1e-4 || r.Pg[gi] > gen.Pmax+1e-4 {
				t.Errorf("%s: gen %d Pg %.2f outside [%.1f,%.1f]", c.Name, gi, r.Pg[gi], gen.Pmin, gen.Pmax)
			}
			if r.Qg[gi] < gen.Qmin-1e-4 || r.Qg[gi] > gen.Qmax+1e-4 {
				t.Errorf("%s: gen %d Qg %.2f outside limits", c.Name, gi, r.Qg[gi])
			}
		}
		// Reference angle unchanged.
		ref := c.RefIndex()
		if math.Abs(r.Va[ref]-grid.Deg2Rad(c.Buses[ref].Va)) > 1e-8 {
			t.Errorf("%s: reference angle moved", c.Name)
		}
	}
}

// The solved OPF voltage/dispatch must satisfy the complex power balance
// computed independently by the grid package.
func TestSolutionSatisfiesACBalance(t *testing.T) {
	c := grid.Case9()
	r := solveCase(t, c)
	y := grid.MakeYbus(c)
	v := grid.Voltage(r.Vm, r.Va)
	pg := make(la.Vector, len(r.Pg))
	qg := make(la.Vector, len(r.Qg))
	for i := range pg {
		pg[i] = r.Pg[i] / c.BaseMVA
		qg[i] = r.Qg[i] / c.BaseMVA
	}
	mis := grid.PowerMismatch(y, v, grid.MakeSbus(c, pg, qg))
	for i, m := range mis {
		if cmplx.Abs(m) > 1e-5 {
			t.Fatalf("bus %d mismatch %v", i, m)
		}
	}
}

func TestLayoutCounts(t *testing.T) {
	// The paper's Table II: #λ = 2·nb + 1 and #µ = 2·nl_rated + finite
	// bounds (Vm, Pg, Qg on both sides).
	for _, tc := range []struct {
		c        *grid.Case
		neq, niq int
	}{
		{grid.Case14(), 29, 48},             // matches Table II
		{grid.Case9(), 19, 2*9 + 2*(9+2*3)}, // all 9 branches rated
		{grid.Case5(), 11, 2*6 + 2*(5+2*5)}, // all 6 branches rated
	} {
		o := Prepare(tc.c)
		if o.Lay.NEq != tc.neq {
			t.Errorf("%s NEq = %d want %d", tc.c.Name, o.Lay.NEq, tc.neq)
		}
		if o.Lay.NIq != tc.niq {
			t.Errorf("%s NIq = %d want %d", tc.c.Name, o.Lay.NIq, tc.niq)
		}
	}
}

func TestWarmStartFromSolution(t *testing.T) {
	// The core Smart-PGSim mechanism: warm-starting from the exact
	// solution must converge in far fewer iterations.
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14()} {
		o := Prepare(c)
		cold, err := o.Solve(nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := o.Solve(&Start{X: cold.X, Lam: cold.Lam, Mu: cold.Mu, Z: cold.Z}, Options{})
		if err != nil {
			t.Fatalf("%s warm: %v", c.Name, err)
		}
		if warm.Iterations*2 > cold.Iterations {
			t.Errorf("%s: warm %d vs cold %d iterations — warm start not effective",
				c.Name, warm.Iterations, cold.Iterations)
		}
		if math.Abs(warm.Cost-cold.Cost)/cold.Cost > 1e-6 {
			t.Errorf("%s: warm cost %.4f differs from cold %.4f", c.Name, warm.Cost, cold.Cost)
		}
	}
}

func TestWarmStartXOnly(t *testing.T) {
	// Precise X with default multipliers (paper's sensitivity case IX)
	// must still converge.
	c := grid.Case9()
	o := Prepare(c)
	cold, err := o.Solve(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := o.Solve(&Start{X: cold.X}, Options{})
	if err != nil {
		t.Fatalf("X-only warm start failed: %v", err)
	}
	if !r.Converged {
		t.Fatal("X-only warm start did not converge")
	}
}

func TestPerturbedLoadsSolve(t *testing.T) {
	// ±10% per-bus random-ish load factors keep the OPF solvable (the
	// paper's sampling law).
	c := grid.Case9()
	fac := make([]float64, c.NB())
	for i := range fac {
		fac[i] = 0.9 + 0.2*float64(i%2) // alternating 0.9 / 1.1
	}
	c.ScaleLoads(fac)
	r := solveCase(t, c)
	if r.Cost <= 0 {
		t.Fatal("nonsensical cost")
	}
}

func TestTraceForFigure10(t *testing.T) {
	c := grid.Case9()
	o := Prepare(c)
	r, err := o.Solve(nil, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) < 3 {
		t.Fatalf("trace too short: %d", len(r.Trace))
	}
	last := r.Trace[len(r.Trace)-1]
	if last.FeasCond > 1e-6 || last.CompCond > 1e-6 {
		t.Fatalf("final conditions not converged: %+v", last)
	}
}

func TestDefaultStartInsideBounds(t *testing.T) {
	o := Prepare(grid.Case14())
	x := o.DefaultStart()
	for i := range x {
		if x[i] < o.xmin[i]-1e-12 || x[i] > o.xmax[i]+1e-12 {
			t.Fatalf("default start x[%d]=%v outside [%v,%v]", i, x[i], o.xmin[i], o.xmax[i])
		}
	}
}

func TestCostEval(t *testing.T) {
	c := grid.Case9()
	o := Prepare(c)
	x := o.DefaultStart()
	f := o.Cost(x)
	// Midpoint dispatch: Pg = (10+250)/2, (10+300)/2, (10+270)/2 MW.
	want := 0.0
	for _, g := range c.ActiveGens() {
		want += g.Cost.Eval((g.Pmin + g.Pmax) / 2)
	}
	if math.Abs(f-want) > 1e-6 {
		t.Fatalf("Cost = %v want %v", f, want)
	}
}

func TestIterationCountsReasonable(t *testing.T) {
	// Cold-start MIPS on the reference cases converges in tens of
	// iterations (Matpower typically 10-25).
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14(), grid.Case5()} {
		r := solveCase(t, c)
		if r.Iterations < 5 || r.Iterations > 60 {
			t.Errorf("%s took %d iterations — outside plausible IPM range", c.Name, r.Iterations)
		}
	}
}
