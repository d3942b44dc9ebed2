package scopf

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mips"
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

// Cross lists each draw's scenarios as intact, branches, generators,
// then pairs, draw after draw, so scenario i belongs to draw i/perDraw.
func TestBuildScenarios(t *testing.T) {
	draws := loadDraws(9, 3, 1)
	want := []Scenario{
		{OutBranch: -1}, {OutBranch: 0}, {OutBranch: 4},
		GenScenario(nil, 1), PairScenario(nil, 0, 4),
	}
	for _, intact := range []bool{true, false} {
		per := want
		if !intact {
			per = want[1:]
		}
		sc := Cross(draws, intact, []int{0, 4}, []int{1}, [][2]int{{0, 4}})
		if len(sc) != len(draws)*len(per) {
			t.Fatalf("intact=%v: %d scenarios, want %d", intact, len(sc), len(draws)*len(per))
		}
		for i, got := range sc {
			w := per[i%len(per)]
			if got.OutBranch != w.OutBranch || got.OutBranch2 != w.OutBranch2 || got.OutGen != w.OutGen || &got.Factors[0] != &draws[i/len(per)][0] {
				t.Fatalf("intact=%v: scenario %d = %+v, want outage %+v of draw %d", intact, i, got, w, i/len(per))
			}
		}
	}
}

func TestScreenColdStart(t *testing.T) {
	c := grid.Case9()
	s := &Engine{Prepared: opf.Prepare(c), Workers: 4}
	draws := loadDraws(c.NB(), 2, 2)
	outs := s.Run(Cross(draws, true, Contingencies(c)[:3], nil, nil)).Outcomes
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
	set, err := dataset.Generate(c, dataset.Options{N: 60, Seed: 5})
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
	scenarios := Cross(draws, true, cons, nil, nil)

	warm := &Engine{Prepared: opf.Prepare(c), Model: m, Workers: 4}
	cold := &Engine{Prepared: opf.Prepare(c), Workers: 4}
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

// The screen takes every available warm start, so it must never cost
// more than cold where it matters: on case30 — the system whose warm
// path loses wall-clock ground in BENCH_paper.json — every scenario the
// cold screen solves takes no more iterations warm, and the warm sweep
// takes fewer in total.
func TestWarmScreenNeverSlowerThanCold(t *testing.T) {
	c := grid.Case30()
	m := trainModel(t, c, 30)
	draws := loadDraws(c.NB(), 4, 31)
	scenarios := Cross(draws, true, Contingencies(c)[:3], nil, nil)
	scenarios = append(scenarios, Cross(draws[:2], false, nil, GenContingencies(c)[:2], nil)...)

	warm := (&Engine{Prepared: opf.Prepare(c), Model: m, Workers: 8}).Run(scenarios).Outcomes
	cold := (&Engine{Prepared: opf.Prepare(c), Workers: 8}).Run(scenarios).Outcomes
	totWarm, totCold := 0, 0
	for i := range warm {
		w, cd := warm[i], cold[i]
		if w.Err != nil || cd.Err != nil || !cd.Feasible {
			continue
		}
		if w.Iterations > cd.Iterations {
			t.Errorf("scenario %d: warm screen took %d iterations, cold %d", i, w.Iterations, cd.Iterations)
		}
		totWarm += w.Iterations
		totCold += cd.Iterations
	}
	if totWarm >= totCold {
		t.Errorf("warm screen spent %d total iterations, cold %d", totWarm, totCold)
	}
}

func TestAllPairs(t *testing.T) {
	got := AllPairs([]int{4, 1, 3})
	want := [][2]int{{1, 4}, {3, 4}, {1, 3}}
	if len(got) != len(want) {
		t.Fatalf("AllPairs %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AllPairs %v want %v", got, want)
		}
	}
}

// trainModel builds a small warm-start model for a case, mirroring the
// offline pipeline the screening tests warm-start from.
func trainModel(t *testing.T, c *grid.Case, seed int64) *mtl.Model {
	t.Helper()
	o := opf.Prepare(c)
	set, err := dataset.Generate(c, dataset.Options{N: 60, Seed: seed})
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
// reference: MatchNaive's exact fields, costs equal to 1e-9 relative, and
// iteration drift within allow — the drift measured on the sweep, pinned
// as its ceiling (the zero Drift: the same iteration counts).
func matchesNaive(t *testing.T, got, ref []Outcome, allow Drift) {
	t.Helper()
	if _, err := MatchNaive(got, ref, allow); err != nil {
		t.Fatal(err)
	}
}

// The engine must reproduce the naive per-scenario-Prepare path on a
// cold N-1 sweep — case9's branches are all rated, so every outage is
// solved with decoupled flow rows, an equivalent problem to the rebuild's
// smaller one: 3 of the 14 scenarios take one iteration more or fewer
// (the measured drift, pinned as the ceiling).
func TestEngineMatchesNaiveCold(t *testing.T) {
	c := grid.Case9()
	draws := loadDraws(c.NB(), 2, 3)
	scenarios := Cross(draws, true, Contingencies(c), nil, nil)
	e := &Engine{Prepared: opf.Prepare(c), Workers: 4}
	matchesNaive(t, e.Run(scenarios).Outcomes, ScreenNaive(c, nil, scenarios, 4), Drift{IterDiffs: 3, IterAbs: 3})
}

// Warm screening on case14 (unrated: every outage keeps the layout, so
// no class fits its start) must also match the naive path — same
// predictions, same warm-start acceptance, same iteration counts.
func TestEngineMatchesNaiveWarm(t *testing.T) {
	c := grid.Case14()
	m := trainModel(t, c, 5)
	draws := loadDraws(c.NB(), 2, 6)
	scenarios := Cross(draws, true, Contingencies(c)[:4], nil, nil)
	e := &Engine{Prepared: opf.Prepare(c), Model: m, Workers: 4}
	matchesNaive(t, e.Run(scenarios).Outcomes, ScreenNaive(c, m, scenarios, 4), Drift{})
}

// Sequential and parallel engine runs must be bit-identical (the batch
// engine's core guarantee, preserved through the shared predictor and
// shared ordering caches).
func TestEngineSeqParallelIdentical(t *testing.T) {
	c := grid.Case9()
	m := trainModel(t, c, 9)
	draws := loadDraws(c.NB(), 2, 4)
	scenarios := Cross(draws, true, Contingencies(c)[:3], nil, nil)
	seq := (&Engine{Prepared: opf.Prepare(c), Model: m, Workers: 1}).Run(scenarios)
	par := (&Engine{Prepared: opf.Prepare(c), Model: m, Workers: 4}).Run(scenarios)
	sameOutcomes(t, par.Outcomes, seq.Outcomes)
	if len(seq.Classes) != len(par.Classes) || len(seq.Classes) != 4 {
		t.Fatalf("class counts %d/%d want 4", len(seq.Classes), len(par.Classes))
	}
}

// On a rated system AdaptStart makes outage scenarios warm-startable;
// the naive path cold-solves them. Feasibility must agree exactly and
// secure-dispatch costs to optimizer precision, while the engine records
// projected warm hits.
func TestProjectionWarmStartsRatedOutages(t *testing.T) {
	c := grid.Case9()
	m := trainModel(t, c, 5)
	draws := loadDraws(c.NB(), 3, 11)
	cons := Contingencies(c)
	scenarios := Cross(draws, true, cons, nil, nil)
	eng := (&Engine{Prepared: opf.Prepare(c), Model: m, Workers: 4}).Run(scenarios)
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
		(&Engine{Prepared: opf.Prepare(c), Workers: 1}).Run(scenarios).Outcomes,
		ScreenNaive(c, nil, scenarios, 1),
	} {
		if outs[0].Err != nil || !outs[0].Feasible {
			t.Fatalf("base scenario: %+v", outs[0])
		}
		if outs[1].Err == nil || outs[1].Feasible {
			t.Fatalf("invalid outage not reported as error: %+v", outs[1])
		}
		if outs[1].Spent != 0 {
			t.Fatalf("a derivation error spent %d iterations", outs[1].Spent)
		}
		sum := Summarize(outs)
		if sum.Errors != 1 || sum.Feasible != 1 || sum.Stalled+sum.IterLimit+sum.Numeric != 0 || sum.ErrorIterations != 0 {
			t.Fatalf("summary %+v", sum)
		}
	}

	// A solver failure is split by its verdict, and the outcome charges
	// both attempts' iterations. case118 without branch 89 cannot be made
	// feasible: its cold solve ends on the stall rule, and warm-started
	// from the intact optimum the warm attempt stalls as well. case30
	// without branch 9 fails too, but on a KKT column the LDLᵀ finds
	// collapsed (the numeric verdict) before the stall rule can fire.
	for _, tc := range []struct {
		c      *grid.Case
		branch int
		want   error
	}{
		{grid.Case118(), 89, mips.ErrStalled},
		{grid.Case30(), 9, mips.ErrNumeric},
	} {
		base := opf.Prepare(tc.c)
		nominal, err := base.Solve(nil, opf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sc := Scenario{Factors: ones(tc.c.NB()), OutBranch: tc.branch}
		for _, pred := range []opf.Predictor{nil, fixedStart{nominal}} {
			outs := (&Engine{Prepared: opf.Prepare(tc.c), Predictor: pred, Workers: 1}).Run([]Scenario{sc}).Outcomes
			if !errors.Is(outs[0].Err, tc.want) {
				t.Fatalf("%s branch %d: err = %v, want %v", tc.c.Name, tc.branch, outs[0].Err, tc.want)
			}
			// The same chain by hand: the class, its start, its two attempts.
			cl, err := base.RebindOutage(tc.branch)
			if err != nil {
				t.Fatal(err)
			}
			inst := cl.Perturb(sc.Factors)
			var start *opf.Start
			if pred != nil {
				start = inst.AdaptStart(pred.Predict(nil))
			}
			want := inst.SolveWarm(start, opf.Options{})
			minIters := 1
			if tc.want == mips.ErrStalled {
				minIters = 65 // a stall ends at iteration 65 or later
			}
			spent := want.Result.Iterations
			if pred != nil {
				if want.Warm == nil || want.Warm.Iterations < minIters {
					t.Fatalf("warm chain by hand: %+v", want)
				}
				spent += want.Warm.Iterations
			}
			if outs[0].Spent != spent || want.Result.Iterations < minIters {
				t.Fatalf("%s branch %d (warm %v): spent %d iterations, want %d", tc.c.Name, tc.branch, pred != nil, outs[0].Spent, spent)
			}
			sum := Summarize(outs)
			verdicts := map[error]int{mips.ErrStalled: sum.Stalled, mips.ErrNumeric: sum.Numeric, mips.ErrMaxIter: sum.IterLimit}
			if sum.Errors != 1 || verdicts[tc.want] != 1 || sum.Stalled+sum.Numeric+sum.IterLimit != 1 || sum.ErrorIterations != spent {
				t.Fatalf("%s branch %d: summary %+v", tc.c.Name, tc.branch, sum)
			}
		}
	}
}

// fixedStart predicts the same start for every input.
type fixedStart struct{ r *opf.Result }

func (p fixedStart) Predict(la.Vector) *opf.Start {
	return &opf.Start{X: p.r.X, Lam: p.r.Lam, Mu: p.r.Mu, Z: p.r.Z}
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
	s := &Engine{Prepared: opf.Prepare(c), Workers: 3}
	draws := loadDraws(c.NB(), 2, 7)
	scenarios := Cross(draws, true, nil, nil, nil)
	a := s.Run(scenarios).Outcomes
	b := s.Run(scenarios).Outcomes
	for i := range a {
		if a[i].Feasible != b[i].Feasible || a[i].Cost != b[i].Cost {
			t.Fatal("screening not deterministic in scenario order")
		}
	}
}
