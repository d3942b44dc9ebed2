package scopf

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/opf"
)

func loadDraws(nb, n int, seed int64) []la.Vector {
	r := rand.New(rand.NewSource(seed))
	out := make([]la.Vector, n)
	for i := range out {
		f := make(la.Vector, nb)
		for k := range f {
			f[k] = 0.9 + 0.2*r.Float64()
		}
		out[i] = f
	}
	return out
}

func TestContingenciesConnected(t *testing.T) {
	c := grid.Case9()
	cons := Contingencies(c)
	if len(cons) == 0 {
		t.Fatal("the 9-bus ring has no bridges; every outage should be screenable")
	}
	// case9 is a 6-branch ring with three radial generator legs: only
	// the ring branches are non-bridges.
	if len(cons) != 6 {
		t.Fatalf("got %d contingencies, want 6", len(cons))
	}
	for _, l := range cons {
		br := c.Branches[l]
		if br.From == 1 || br.From == 3 || (br.From == 8 && br.To == 2) {
			t.Fatalf("generator leg %d-%d treated as non-bridge", br.From, br.To)
		}
	}
	// case14 has radial spurs (e.g. 7-8); bridge outages must be excluded.
	c14 := grid.Case14()
	for _, l := range Contingencies(c14) {
		br := c14.Branches[l]
		if br.From == 7 && br.To == 8 {
			t.Fatal("bridge 7-8 not excluded")
		}
	}
}

func TestBuildScenarios(t *testing.T) {
	draws := loadDraws(9, 3, 1)
	sc := BuildScenarios(draws, []int{0, 4})
	if len(sc) != 3*3 {
		t.Fatalf("%d scenarios, want 9", len(sc))
	}
	if sc[0].OutBranch != -1 || sc[1].OutBranch != 0 {
		t.Fatal("scenario ordering wrong")
	}
}

func TestScreenColdStart(t *testing.T) {
	c := grid.Case9()
	s := &Engine{Base: c, Workers: 4}
	draws := loadDraws(c.NB(), 2, 2)
	outs := s.Run(BuildScenarios(draws, Contingencies(c)[:3])).Outcomes
	sum := Summarize(outs)
	if sum.Total != 8 {
		t.Fatalf("total %d", sum.Total)
	}
	if sum.Feasible < 6 {
		t.Errorf("only %d/%d scenarios feasible on the lightly-loaded ring", sum.Feasible, sum.Total)
	}
	if sum.Feasible > 0 && sum.WorstCost <= 0 {
		t.Error("worst cost not recorded")
	}
}

func TestScreenWarmStart(t *testing.T) {
	c := grid.Case14() // unrated branches: outages keep the layout
	o := opf.Prepare(c)
	set, err := dataset.Generate(c, dataset.DefaultPreparer, dataset.Options{N: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mtl.Config{Variant: mtl.VariantMTL, Hierarchy: true, DetachPeriod: 4, Seed: 5}
	m := mtl.New(o.Lay, cfg)
	if _, err := mtl.Train(m, nil, set, mtl.TrainConfig{Epochs: 150, BatchSize: 12, Seed: 5}); err != nil {
		t.Fatal(err)
	}

	draws := loadDraws(c.NB(), 3, 6)
	cons := Contingencies(c)[:4]
	scenarios := BuildScenarios(draws, cons)

	warm := &Engine{Base: c, Model: m, Workers: 4}
	cold := &Engine{Base: c, Workers: 4}
	wOut := Summarize(warm.Run(scenarios).Outcomes)
	cOut := Summarize(cold.Run(scenarios).Outcomes)

	if wOut.Feasible != cOut.Feasible {
		t.Fatalf("warm screening changed feasibility: %d vs %d", wOut.Feasible, cOut.Feasible)
	}
	if wOut.WarmConverged == 0 {
		t.Fatal("no scenario accepted the warm start")
	}
	// Warm screening must reduce the mean iteration count (the paper's
	// SC-ACOPF use case for Smart-PGSim).
	if wOut.MeanIterations >= cOut.MeanIterations {
		t.Errorf("warm mean iterations %.1f not below cold %.1f",
			wOut.MeanIterations, cOut.MeanIterations)
	}
}

// trainModel builds a small warm-start model for a case, mirroring the
// offline pipeline the screening tests warm-start from.
func trainModel(t *testing.T, c *grid.Case, seed int64) *mtl.Model {
	t.Helper()
	o := opf.Prepare(c)
	set, err := dataset.Generate(c, dataset.DefaultPreparer, dataset.Options{N: 60, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mtl.Config{Variant: mtl.VariantMTL, Hierarchy: true, DetachPeriod: 4, Seed: seed}
	m := mtl.New(o.Lay, cfg)
	if _, err := mtl.Train(m, nil, set, mtl.TrainConfig{Epochs: 150, BatchSize: 12, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return m
}

// sameOutcomes requires bit-identical screening results — the pin between
// two engine runs: every verdict, the iteration counts, and exact float
// equality on cost.
func sameOutcomes(t *testing.T, got, want []Outcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d outcomes want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !sameVerdict(g, w) || g.Iterations != w.Iterations || g.Cost != w.Cost {
			t.Fatalf("outcome %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// matchesNaive requires engine outcomes to agree with the ScreenNaive
// reference with no drift allowed: MatchNaive's exact fields, the same
// iteration counts, costs equal to 1e-9 relative.
func matchesNaive(t *testing.T, got, ref []Outcome) {
	t.Helper()
	if _, err := MatchNaive(got, ref, Drift{}); err != nil {
		t.Fatal(err)
	}
}

// The engine must reproduce the naive per-scenario-Prepare path on a
// cold N-1 sweep — case9's branches are all rated, so this covers
// layout-shrinking outages.
func TestEngineMatchesNaiveCold(t *testing.T) {
	c := grid.Case9()
	draws := loadDraws(c.NB(), 2, 3)
	scenarios := BuildScenarios(draws, Contingencies(c))
	e := &Engine{Base: c, Workers: 4}
	matchesNaive(t, e.Run(scenarios).Outcomes, ScreenNaive(c, nil, scenarios, 4))
}

// Warm screening on case14 (unrated: every outage keeps the layout) must
// also match the naive path — same predictions, same warm-start
// acceptance, same iteration counts.
func TestEngineMatchesNaiveWarm(t *testing.T) {
	c := grid.Case14()
	m := trainModel(t, c, 5)
	draws := loadDraws(c.NB(), 2, 6)
	scenarios := BuildScenarios(draws, Contingencies(c)[:4])
	e := &Engine{Base: c, Model: m, Workers: 4, NoProjection: true}
	matchesNaive(t, e.Run(scenarios).Outcomes, ScreenNaive(c, m, scenarios, 4))
	// Projection has nothing to project on an unrated system: the default
	// engine must produce the same outcomes.
	e2 := &Engine{Base: c, Model: m, Workers: 4}
	matchesNaive(t, e2.Run(scenarios).Outcomes, ScreenNaive(c, m, scenarios, 4))
}

// Sequential and parallel engine runs must be bit-identical (the batch
// engine's core guarantee, preserved through the shared predictor and
// shared ordering caches).
func TestEngineSeqParallelIdentical(t *testing.T) {
	c := grid.Case9()
	m := trainModel(t, c, 9)
	draws := loadDraws(c.NB(), 2, 4)
	scenarios := BuildScenarios(draws, Contingencies(c)[:3])
	seq := (&Engine{Base: c, Model: m, Workers: 1}).Run(scenarios)
	par := (&Engine{Base: c, Model: m, Workers: 4}).Run(scenarios)
	sameOutcomes(t, par.Outcomes, seq.Outcomes)
	if len(seq.Classes) != len(par.Classes) || len(seq.Classes) != 4 {
		t.Fatalf("class counts %d/%d want 4", len(seq.Classes), len(par.Classes))
	}
}

// On a rated system the projection makes outage scenarios warm-startable;
// the naive path cold-solves them. Feasibility must agree exactly and
// secure-dispatch costs to optimizer precision, while the engine records
// projected warm hits.
func TestProjectionWarmStartsRatedOutages(t *testing.T) {
	c := grid.Case9()
	m := trainModel(t, c, 5)
	draws := loadDraws(c.NB(), 3, 11)
	cons := Contingencies(c)
	scenarios := BuildScenarios(draws, cons)
	eng := (&Engine{Base: c, Model: m, Workers: 4}).Run(scenarios)
	naive := ScreenNaive(c, m, scenarios, 4)
	sEng, sNaive := Summarize(eng.Outcomes), Summarize(naive)
	if sEng.Feasible != sNaive.Feasible {
		t.Fatalf("projection changed feasibility: %d vs %d", sEng.Feasible, sNaive.Feasible)
	}
	if sEng.Projected == 0 {
		t.Fatal("no outage scenario accepted a projected warm start")
	}
	if sNaive.Projected != 0 {
		t.Fatal("naive path reported projected warm starts")
	}
	if sEng.WarmConverged <= sNaive.WarmConverged {
		t.Errorf("projection did not raise the warm-hit count: %d vs %d", sEng.WarmConverged, sNaive.WarmConverged)
	}
	for i := range eng.Outcomes {
		g, w := eng.Outcomes[i], naive[i]
		if g.Feasible && w.Feasible {
			if rel := (g.Cost - w.Cost) / w.Cost; rel > 1e-6 || rel < -1e-6 {
				t.Fatalf("scenario %d: projected cost %.8f vs cold %.8f", i, g.Cost, w.Cost)
			}
		}
		// Intact scenarios take the identical exact-warm path.
		if g.Scenario.OutBranch < 0 && (g.Cost != w.Cost || g.Iterations != w.Iterations) {
			t.Fatalf("intact scenario %d not bit-identical", i)
		}
	}
	// Class accounting: one intact class + one per contingency, each
	// marked with its warm mode.
	if len(eng.Classes) != len(cons)+1 {
		t.Fatalf("%d classes want %d", len(eng.Classes), len(cons)+1)
	}
	if eng.Classes[0].OutBranch != -1 || eng.Classes[0].WarmMode != "exact" {
		t.Fatalf("intact class %+v", eng.Classes[0])
	}
	for _, cl := range eng.Classes[1:] {
		if cl.WarmMode != "projected" {
			t.Fatalf("outage class %+v not projected", cl)
		}
	}
}

// Invalid outage indices and solver failures surface as Outcome.Err and
// Summary.Errors instead of being conflated with infeasibility.
func TestOutcomeErrors(t *testing.T) {
	c := grid.Case9()
	scenarios := []Scenario{
		{Factors: ones(c.NB()), OutBranch: -1},
		{Factors: ones(c.NB()), OutBranch: len(c.Branches) + 3},
	}
	for _, outs := range [][]Outcome{
		(&Engine{Base: c, Workers: 1}).Run(scenarios).Outcomes,
		ScreenNaive(c, nil, scenarios, 1),
	} {
		if outs[0].Err != nil || !outs[0].Feasible {
			t.Fatalf("base scenario: %+v", outs[0])
		}
		if outs[1].Err == nil || outs[1].Feasible {
			t.Fatalf("invalid outage not reported as error: %+v", outs[1])
		}
		sum := Summarize(outs)
		if sum.Errors != 1 || sum.Feasible != 1 {
			t.Fatalf("summary %+v", sum)
		}
	}
}

func ones(n int) la.Vector {
	f := make(la.Vector, n)
	for i := range f {
		f[i] = 1
	}
	return f
}

func TestScreenDeterministicOrder(t *testing.T) {
	c := grid.Case9()
	s := &Engine{Base: c, Workers: 3}
	draws := loadDraws(c.NB(), 2, 7)
	scenarios := BuildScenarios(draws, nil)
	a := s.Run(scenarios).Outcomes
	b := s.Run(scenarios).Outcomes
	for i := range a {
		if a[i].Feasible != b[i].Feasible || a[i].Cost != b[i].Cost {
			t.Fatal("screening not deterministic in scenario order")
		}
	}
}
