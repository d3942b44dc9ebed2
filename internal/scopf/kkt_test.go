package scopf

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/opf"
	"repro/internal/sparse"
)

// countingPredictor counts the predictions an engine asks for.
type countingPredictor struct {
	opf.Predictor
	calls atomic.Int64
}

func (p *countingPredictor) Predict(in la.Vector) *opf.Start {
	p.calls.Add(1)
	return p.Predictor.Predict(in)
}

// The model input is the loads alone, so a draw's intact scenario and
// its outages share one prediction: 1 draw × 5 scenarios predicts once,
// for any worker count and whether or not the scenarios share the
// storage of their Factors, with outcomes bit-identical to predicting
// per scenario (each scenario screened by a run of its own).
func TestPredictOncePerDraw(t *testing.T) {
	c := grid.Case14()
	m := trainModel(t, c, 5)
	draw := loadDraws(c.NB(), 1, 6)
	shared := Cross(draw, true, Contingencies(c)[:4], nil, nil)
	separate := slices.Clone(shared)
	for i := range separate {
		separate[i].Factors = shared[i].Factors.Clone()
	}
	run := func(scenarios []Scenario, workers int) ([]Outcome, int64) {
		pred := &countingPredictor{Predictor: m}
		rep := (&Engine{Prepared: opf.Prepare(c), Predictor: pred, Workers: workers}).Run(scenarios)
		return rep.Outcomes, pred.calls.Load()
	}
	var want []Outcome
	var perScenario int64
	for i := range shared {
		out, calls := run(shared[i:i+1], 1)
		want, perScenario = append(want, out...), perScenario+calls
	}
	if perScenario != int64(len(shared)) {
		t.Fatalf("one run per scenario: %d predictions for %d scenarios", perScenario, len(shared))
	}
	if s := Summarize(want); s.WarmConverged == 0 {
		t.Fatal("no scenario used its prediction: the test would pin nothing")
	}
	for _, scenarios := range [][]Scenario{shared, separate} {
		for _, workers := range []int{1, 4} {
			got, calls := run(scenarios, workers)
			if calls != 1 {
				t.Fatalf("workers=%d: %d predictions for one draw, want 1", workers, calls)
			}
			sameOutcomes(t, got, want)
		}
	}
	// Another draw is another prediction, however close.
	other := slices.Clone(shared)
	other[2].Factors = shared[2].Factors.Clone()
	other[2].Factors[c.NB()-1] += 1e-12
	if _, calls := run(other, 1); calls != 2 {
		t.Fatalf("two distinct draws: %d predictions, want 2", calls)
	}
}

// Results must not depend on which scenario happens to run first: an
// outage class factors on the intact system's analysis, and makes sure
// of it itself when no intact solve came before. Fresh engines (nothing
// prepared, empty caches) screen the same cold sweep intact-first,
// outages-first and in parallel, and every scenario comes out
// bit-identical.
func TestEngineScenarioOrderIndependent(t *testing.T) {
	c := grid.Case14()
	scenarios := Cross(loadDraws(c.NB(), 2, 8), true, Contingencies(c)[:6], nil, nil)
	want := (&Engine{Prepared: opf.Prepare(c), Workers: 1}).Run(scenarios).Outcomes

	reversed := slices.Clone(scenarios)
	slices.Reverse(reversed) // outage scenarios first, an intact one last
	for _, workers := range []int{1, 4} {
		got := (&Engine{Prepared: opf.Prepare(c), Workers: workers}).Run(reversed).Outcomes
		slices.Reverse(got)
		sameOutcomes(t, got, want)
	}
	sameOutcomes(t, (&Engine{Prepared: opf.Prepare(c), Workers: 4}).Run(scenarios).Outcomes, want)
}

// A sweep reports the KKT analysis work of its outage classes, per class
// and in total: none for branch, pair and generator classes alike, which
// all factor on the intact system's analysis. The intact class is solved
// on the system's own cache and counted there — once, for any worker
// count.
func TestReportCountsKKTWork(t *testing.T) {
	c := grid.Case14() // meshed: the pair below does not island
	f := ones(c.NB())
	scenarios := []Scenario{
		{Factors: f, OutBranch: -1},
		{Factors: f, OutBranch: 1},
		{Factors: f, OutBranch: 4},
		PairScenario(f, 1, 4),
		GenScenario(f, 1),
	}
	for _, workers := range []int{1, 4} {
		base := opf.Prepare(c)
		e := &Engine{Prepared: base, Workers: workers}
		for sweep := 0; sweep < 2; sweep++ { // the second finds the intact analysis in place
			rep := e.Run(scenarios)
			var sum sparse.CacheStats
			for _, cl := range rep.Classes {
				if cl.KKT.Analyses != 0 || cl.KKT.Orderings != 0 || (cl.KKT.Refactors == 0) != (cl.Kind == "intact") {
					t.Errorf("workers=%d: %s class %+v: KKT %+v, want no analysis and no ordering", workers, cl.Kind, cl, cl.KKT)
				}
				sum = sum.Add(cl.KKT)
			}
			if rep.KKT != sum || rep.KKT.Analyses != 0 || rep.KKT.Orderings != 0 {
				t.Errorf("workers=%d: sweep KKT %+v, classes sum to %+v, want no analysis", workers, rep.KKT, sum)
			}
			if st := base.KKTStats(); st.Analyses != 1 || st.Orderings != 1 {
				t.Errorf("workers=%d sweep %d: intact system counts %+v, want one analysis and one ordering", workers, sweep, st)
			}
		}
	}
}
