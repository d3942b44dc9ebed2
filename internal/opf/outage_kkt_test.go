package opf

import (
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/grid"
)

// parentAnalysisCostTol is the relative cost agreement asserted between
// a converged solve on the parent's KKT analysis and the same solve on a
// private one. Measured over every fleet below: at most 2.9e-9 (on
// case57), two to three digits inside the solver's own CostTol.
const parentAnalysisCostTol = 3e-9

// fleetDrift tallies, over one outage fleet, how the solves on the
// parent's analysis compare with the same solves on a private one.
type fleetDrift struct {
	classes, bothConverged int
	iterDiffs              int // both converged, in different iteration counts
	iterAbs                int // Σ |iterations − private iterations| over those
	iters, privateIters    int // iterations over the classes both converged on
	maxRelCost             float64
}

// solveBothWays cold-solves an outage class twice — on its parent's KKT
// analysis, as RebindOutage leaves it, and on a private analysis of its
// own pattern (SetOrdering, the path before outage classes kept their
// parent's) — and fails unless the first solve needed no ordering and no
// analysis of its pattern, the verdicts are equal, and two converged
// solves found the same optimum (parentAnalysisCostTol). Iteration
// counts are tallied for the caller to bound: the two paths eliminate
// the same Newton systems in different orders, and a cold interior-point
// trajectory is sensitive to that, as it is between orderings on the
// private path itself.
func solveBothWays(t *testing.T, name string, cls *OPF, d *fleetDrift) {
	t.Helper()
	got, gerr := cls.Solve(nil, Options{})
	// No ordering and no shaped analysis; the only analyses left are the
	// value-pivoted re-analyses of iterates that reject the frozen pivots
	// (counted as Fallbacks), which any path performs.
	if st := cls.KKTStats(); st.Orderings != 0 || st.Analyses > st.Fallbacks || st.Refactors == 0 {
		t.Fatalf("%s: pattern did not embed in the parent's analysis: %+v", name, st)
	}
	private := *cls
	private.SetOrdering(cls.Ordering())
	want, werr := private.Solve(nil, Options{})
	if st := private.KKTStats(); st.Analyses == 0 || st.Orderings != 1 {
		t.Fatalf("%s: reference path did not analyze privately: %+v", name, st)
	}
	d.classes++
	gok, wok := gerr == nil && got.Converged, werr == nil && want.Converged
	if gok != wok {
		t.Fatalf("%s: verdict differs: parent's analysis %d iterations (%v), private %d iterations (%v)",
			name, got.Iterations, gerr, want.Iterations, werr)
	}
	if !gok {
		return
	}
	d.bothConverged++
	d.iters += got.Iterations
	d.privateIters += want.Iterations
	rel := math.Abs(got.Cost-want.Cost) / math.Abs(want.Cost)
	if rel > parentAnalysisCostTol {
		t.Fatalf("%s: cost %v on the parent's analysis, %v on a private one (relative %g)", name, got.Cost, want.Cost, rel)
	}
	d.maxRelCost = math.Max(d.maxRelCost, rel)
	if got.Iterations != want.Iterations {
		d.iterDiffs++
		d.iterAbs += max(got.Iterations-want.Iterations, want.Iterations-got.Iterations)
		t.Logf("%s: %d iterations on the parent's analysis, %d on a private one (relative cost difference %.1e)",
			name, got.Iterations, want.Iterations, rel)
	}
}

// fleetIterDrift is the iteration-count drift measured per fleet on
// linux/amd64 and listed, scenario by scenario, in PERFORMANCE.md ("One
// KKT analysis per system"): how many classes converge in a different
// iteration count on the parent's analysis than on a private one, and
// the summed size of those differences. The test fails beyond it, so a
// change that moves more trajectories has to show up there first; a
// sampled fleet (-short, -race) stays under the same ceilings.
var fleetIterDrift = map[string]struct{ diffs, abs int }{
	"case9 N-1":   {0, 0},
	"case14 N-1":  {6, 16},
	"case14 N-2":  {44, 173},
	"case30 N-1":  {0, 0},
	"case57 N-1":  {1, 1},
	"case118 N-1": {7, 10},
}

func checkFleet(t *testing.T, fleet string, d fleetDrift) {
	t.Helper()
	t.Logf("%s: %+v", fleet, d)
	if lim := fleetIterDrift[fleet]; d.iterDiffs > lim.diffs || d.iterAbs > lim.abs {
		t.Errorf("%s: %d classes differ in iteration count by %d in total (%d vs %d iterations), recorded %d by %d",
			fleet, d.iterDiffs, d.iterAbs, d.iters, d.privateIters, lim.diffs, lim.abs)
	}
}

// Every connected branch outage of the embedded systems, and every
// connected case14 branch pair, keeps the intact system's KKT analysis
// — zero orderings, zero analyses — with the verdict of the private
// path, its optimum, and its iteration count outside the recorded drift.
func TestOutageFleetKeepsParentAnalysis(t *testing.T) {
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14(), grid.Case30(), grid.Case57(), grid.Case118()} {
		base := Prepare(c)
		var connected []int
		for b, br := range c.Branches {
			if br.Status && grid.ConnectedWithout(c, []int{b}) {
				connected = append(connected, b)
			}
		}
		// The fleets are serial numerics: under -short, and under the race
		// detector (7 min for nothing it can find), sample the large ones.
		stride := 1
		if (testing.Short() || raceEnabled) && len(connected) > 40 {
			stride = 8
		}
		var d fleetDrift
		for k := 0; k < len(connected); k += stride {
			b := connected[k]
			cls, err := base.RebindOutage(b)
			if err != nil {
				t.Fatal(err)
			}
			solveBothWays(t, c.Name+" branch "+strconv.Itoa(b), cls, &d)
		}
		checkFleet(t, c.Name+" N-1", d)
		if c.Name != "case14" {
			continue
		}
		d = fleetDrift{}
		for i, b1 := range connected {
			for _, b2 := range connected[i+1:] {
				if !grid.ConnectedWithout(c, []int{b1, b2}) {
					continue
				}
				one, err := base.RebindOutage(b1)
				if err != nil {
					t.Fatal(err)
				}
				two, err := one.RebindOutage(b2)
				if err != nil {
					t.Fatal(err)
				}
				solveBothWays(t, c.Name+" pair "+strconv.Itoa(b1)+"+"+strconv.Itoa(b2), two, &d)
			}
		}
		checkFleet(t, c.Name+" N-2", d)
		if st := base.KKTStats(); st.Analyses != 1 || st.Orderings != 1 {
			t.Fatalf("%s: intact system analyzed %d times (%d orderings) for its whole outage space, want once", c.Name, st.Analyses, st.Orderings)
		}
	}
}

// An outage solve must not depend on whether the intact system was
// solved before it: the derived instance puts the intact analysis in
// place itself. Fresh Prepare → RebindOutage → Solve, with and without a
// base solve first, and with the base solved only after deriving, are
// bit-identical.
func TestOutageSolveIndependentOfBaseHistory(t *testing.T) {
	c := grid.Case30()
	const branch = 5
	solve := func(baseFirst, baseBetween bool) *Result {
		base := Prepare(c)
		if baseFirst {
			if _, err := base.Solve(nil, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		cls, err := base.RebindOutage(branch)
		if err != nil {
			t.Fatal(err)
		}
		if baseBetween {
			if _, err := base.Solve(nil, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		r, err := cls.Solve(nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st := cls.KKTStats(); st.Analyses != 0 || st.Orderings != 0 {
			t.Fatalf("outage class analyzed for itself (base first %v, between %v): %+v", baseFirst, baseBetween, st)
		}
		if st := base.KKTStats(); st.Analyses != 1 {
			t.Fatalf("intact system analyzed %d times (base first %v, between %v), want once", st.Analyses, baseFirst, baseBetween)
		}
		return r
	}
	want := solve(false, false)
	for _, r := range []*Result{solve(true, false), solve(false, true)} {
		if r.Iterations != want.Iterations || r.Cost != want.Cost || !slices.Equal(r.X, want.X) ||
			!slices.Equal(r.Lam, want.Lam) || !slices.Equal(r.Mu, want.Mu) || !slices.Equal(r.Z, want.Z) {
			t.Fatalf("outage solve depends on the base instance's history: %d iterations cost %v vs %d iterations cost %v",
				r.Iterations, r.Cost, want.Iterations, want.Cost)
		}
	}
}
