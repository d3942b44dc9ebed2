package scopf

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/opf"
)

// The engine's generator-outage path must agree (MatchNaive) with the
// naive per-scenario rebuild on a cold sweep: the dropped unit decouples
// into an equivalent problem, not the same one; on these sweeps no
// iteration count moves. Warm, the engine fits the prediction to each
// dropped unit while the rebuild, whose fresh Prepare has another
// layout, solves it cold: intact scenarios must match it exactly, and
// generator scenarios in feasibility and in cost to 1e-6.
func TestEngineMatchesNaiveGenOutages(t *testing.T) {
	c := grid.Case9()
	draws := loadDraws(c.NB(), 2, 13)
	gens := GenContingencies(c)
	if len(gens) != len(c.Gens) {
		t.Fatalf("%d gen contingencies want %d", len(gens), len(c.Gens))
	}
	scenarios := Cross(draws, true, nil, gens, nil)

	e := &Engine{Prepared: opf.Prepare(c), Workers: 4}
	matchesNaive(t, e.Run(scenarios).Outcomes, ScreenNaive(c, nil, scenarios, 4), Drift{})

	m := trainModel(t, c, 17)
	warm := (&Engine{Prepared: opf.Prepare(c), Model: m, Workers: 4}).Run(scenarios).Outcomes
	naive := ScreenNaive(c, m, scenarios, 4)
	if Summarize(warm).Projected == 0 {
		t.Fatal("no generator scenario accepted a fitted warm start")
	}
	for i, g := range warm {
		w := naive[i]
		switch {
		case g.Scenario.OutagedGen() < 0:
			if !sameVerdict(g, w) || g.Iterations != w.Iterations || g.Cost != w.Cost {
				t.Fatalf("intact scenario %d:\n got %+v\nwant %+v", i, g, w)
			}
		case g.Feasible != w.Feasible || relCostDiff(g, w) > 1e-6:
			t.Fatalf("generator scenario %d: fitted warm start %+v, cold rebuild %+v", i, g, w)
		}
	}

	// A fixed-output unit's two Pg bound rows bind at every solution. Once
	// the unit is dropped they are decoupled rows, which the rebuild does
	// not have: Binding must not count them.
	fixed := grid.Case9()
	fixed.Gens[1].Pmin = fixed.Gens[1].Pmax
	e = &Engine{Prepared: opf.Prepare(fixed), Workers: 4}
	matchesNaive(t, e.Run(scenarios).Outcomes, ScreenNaive(fixed, nil, scenarios, 4), Drift{})
}

// N-2 pair scenarios — including pairs that island — must pin to the
// naive path, and class accounting must report the outage combination.
func TestEngineMatchesNaivePairs(t *testing.T) {
	c := grid.Case9()
	draws := loadDraws(c.NB(), 2, 19)
	pairs := [][2]int{{1, 4}, {2, 8}, {1, 2} /* islands */, {4, 1} /* dup, swapped */}
	scenarios := Cross(draws, false, nil, nil, pairs)
	// A combined branch+generator scenario exercises the chained
	// derivation (branch rebind, then gen rebind).
	combined := GenScenario(draws[0], 1)
	combined.OutBranch = 4
	scenarios = append(scenarios, combined)

	e := &Engine{Prepared: opf.Prepare(c), Workers: 4}
	rep := e.Run(scenarios)
	matchesNaive(t, rep.Outcomes, ScreenNaive(c, nil, scenarios, 4), Drift{})

	kinds := map[string]int{}
	for _, cl := range rep.Classes {
		kinds[cl.Kind]++
	}
	// {1,4} and {4,1} canonicalize to one class: 3 pair classes total.
	if kinds["pair"] != 3 || kinds["branch+gen"] != 1 {
		t.Fatalf("class kinds %+v", kinds)
	}
	for _, cl := range rep.Classes {
		if cl.Kind == "pair" && cl.OutBranch == 1 && cl.OutBranch2 == 2 && !cl.Islanded {
			t.Fatalf("islanding pair class not flagged: %+v", cl)
		}
	}
}

// Islanding classification, table-driven: bridge outages and islanding
// pairs on case9 and case30 must come back Islanded with zero solver
// effort, from both the engine and the naive reference, and the
// package's connectivity shim must agree with a from-scratch BFS on a
// rebuilt case.
func TestIslandingClassification(t *testing.T) {
	tests := []struct {
		name    string
		c       *grid.Case
		bridges []int
		pairs   [][2]int
	}{
		// case9: three radial generator legs are the bridges.
		{"case9", grid.Case9(), []int{0, 3, 6}, [][2]int{{1, 2}, {1, 4}}},
		// case30: radial spurs 9-11, 12-13 and 25-26 are the bridges.
		{"case30", grid.Case30(), []int{12, 15, 33}, [][2]int{{0, 1}, {4, 7}}},
	}
	for _, tc := range tests {
		var scenarios []Scenario
		for _, b := range tc.bridges {
			scenarios = append(scenarios, Scenario{Factors: ones(tc.c.NB()), OutBranch: b})
		}
		scenarios = append(scenarios, Cross([]la.Vector{ones(tc.c.NB())}, false, nil, nil, tc.pairs)...)
		for _, outs := range [][]Outcome{
			(&Engine{Prepared: opf.Prepare(tc.c), Workers: 2}).Run(scenarios).Outcomes,
			ScreenNaive(tc.c, nil, scenarios, 2),
		} {
			for i, o := range outs {
				if !o.Islanded || o.Feasible || o.Err != nil {
					t.Fatalf("%s scenario %d not classified islanded: %+v", tc.name, i, o)
				}
				if o.Iterations != 0 || o.WarmUsed || o.Binding != 0 {
					t.Fatalf("%s scenario %d: solver effort spent on an islanding outage: %+v", tc.name, i, o)
				}
			}
			sum := Summarize(outs)
			if sum.Islanded != len(outs) || sum.Feasible != 0 {
				t.Fatalf("%s summary %+v", tc.name, sum)
			}
		}
		// The connectivity shim agrees with the from-scratch BFS.
		for _, b := range tc.bridges {
			if grid.ConnectedWithout(tc.c, []int{b}) {
				t.Fatalf("%s: bridge %d reported connected", tc.name, b)
			}
			cc := tc.c.Clone()
			cc.Branches[b].Status = false
			if err := cc.Normalize(); err != nil {
				t.Fatal(err)
			}
			if grid.ConnectedWithout(cc, nil) {
				t.Fatalf("%s: rebuilt BFS disagrees on bridge %d", tc.name, b)
			}
		}
	}
}

// GenContingencies excludes nothing on multi-unit systems and
// everything on a single-unit one.
func TestGenContingencies(t *testing.T) {
	c := grid.Case30()
	if got := GenContingencies(c); len(got) != 6 {
		t.Fatalf("case30: %d gen contingencies want 6", len(got))
	}
	cc := grid.Case9().Clone()
	cc.Gens[1].Status = false
	cc.Gens[2].Status = false
	if err := cc.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got := GenContingencies(cc); len(got) != 0 {
		t.Fatalf("single-unit system offered gen contingencies %v", got)
	}
}

// Gen-outage scenario errors: out-of-range and already-out generators
// surface as Outcome.Err from both paths.
func TestGenOutageErrors(t *testing.T) {
	c := grid.Case9()
	cc := c.Clone()
	cc.Gens[2].Status = false
	if err := cc.Normalize(); err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		GenScenario(ones(c.NB()), len(c.Gens)+1),
		GenScenario(ones(c.NB()), 2), // out of service on cc
	}
	for _, outs := range [][]Outcome{
		(&Engine{Prepared: opf.Prepare(cc), Workers: 1}).Run(scenarios).Outcomes,
		ScreenNaive(cc, nil, scenarios, 1),
	} {
		for i, o := range outs {
			if o.Err == nil || o.Feasible || o.Islanded {
				t.Fatalf("invalid gen outage %d not an error: %+v", i, o)
			}
		}
	}
}
