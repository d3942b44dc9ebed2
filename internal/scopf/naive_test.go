package scopf

// The per-scenario-rebuild reference the engine is pinned to, and the
// predicate that pins it.

import (
	"fmt"
	"math"

	"repro/internal/batch"
	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// ScreenNaive is the reference screening path: every scenario deep-clones
// the case, re-Normalizes, rebuilds the admittance matrices and layout
// with a fresh opf.Prepare, and warm-starts only when the contingency
// preserves the model's constraint layout (outages of rated branches and
// of units fall back to cold). It mirrors the Engine's full contingency-space
// semantics — validation order, islanding classification, generator and
// N-2 pair outages — and exists as the pinning target and benchmark
// baseline for the Engine, which must agree with it (MatchNaive) wherever
// no class fits its warm start to an outage: on cold sweeps, and on
// warm ones whose outages keep the layout (unrated branches).
func ScreenNaive(base *grid.Case, m *mtl.Model, scenarios []Scenario, workers int) []Outcome {
	out := make([]Outcome, len(scenarios))
	_ = batch.Run(len(scenarios), workers, func(i int) error {
		sc := scenarios[i]
		key := sc.key()
		// Same order as buildClass: validation, then islanding.
		if err := key.check(base); err != nil {
			out[i] = Outcome{Scenario: sc, Err: err}
			return nil
		}
		c := base.Clone()
		c.ScaleLoads(sc.Factors)
		outaged := false
		for _, b := range []int{key.b1, key.b2} {
			if b >= 0 && c.Branches[b].Status {
				c.Branches[b].Status = false
				outaged = true
			}
		}
		if outaged && !grid.ConnectedWithout(c, nil) {
			out[i] = Outcome{Scenario: sc, Islanded: true}
			return nil
		}
		if key.g >= 0 {
			c.Gens[key.g].Status = false
		}
		if err := c.Normalize(); err != nil {
			out[i] = Outcome{Scenario: sc, Err: err}
			return nil
		}
		o := opf.Prepare(c)
		var start *opf.Start
		if m != nil && o.Lay.Fits(m.Lay) {
			start = m.Predict(dataset.InputVector(o.Case))
		}
		out[i] = solveOutcome(o, sc, start, false)
		return nil
	})
	return out
}

// NaiveCostTol is the relative cost agreement MatchNaive asks of every
// scenario. The reference analyzes each outage pattern privately, so its
// factors round differently from the engine's: where the two take the
// same trajectory the costs differ by ≤ 3e-13.
const NaiveCostTol = 1e-9

// Drift measures how far an engine sweep sits from the ScreenNaive
// outcomes of the same scenarios in the two quantities that are not
// verdicts. The engine solves every outage as a value edit on the intact
// problem and factors it on the intact system's analysis; the reference
// solves the outaged case's own smaller problem on a private analysis.
// The two are equivalent problems, not the same one — the decoupled rows
// and columns of the engine's take part in every Newton step and in the
// convergence tests — so a trajectory, cold ones most of all, can take
// another iteration count on the way to the same optimum (PERFORMANCE.md,
// "Every contingency is a value edit", lists what was measured).
type Drift struct {
	IterDiffs  int     // scenarios that took a different number of iterations
	IterAbs    int     // Σ |iterations − reference iterations| over them
	MaxRelCost float64 // worst relative cost difference
}

// MatchNaive is the one pin of the engine to the ScreenNaive reference,
// for the tests and BenchmarkScreen alike. It fails unless every
// outcome agrees exactly in Feasible, WarmUsed, Projected, Islanded,
// Binding and error presence, and the sweep's drift stays
// within allow. The zero Drift allows none: every iteration count equal,
// every cost within NaiveCostTol (allow.MaxRelCost below that is read as
// NaiveCostTol). A sweep known to drift passes the drift measured on it,
// so that anything beyond fails. The measured drift is returned.
func MatchNaive(got, ref []Outcome, allow Drift) (Drift, error) {
	var d Drift
	if len(got) != len(ref) {
		return d, fmt.Errorf("scopf: %d outcomes against %d reference outcomes", len(got), len(ref))
	}
	for i := range got {
		g, r := got[i], ref[i]
		if !sameVerdict(g, r) {
			return d, fmt.Errorf("scopf: scenario %d: verdict differs from the reference:\n got %+v\nwant %+v", i, g, r)
		}
		if g.Iterations != r.Iterations {
			d.IterDiffs++
			d.IterAbs += max(g.Iterations-r.Iterations, r.Iterations-g.Iterations)
		}
		d.MaxRelCost = math.Max(d.MaxRelCost, relCostDiff(g, r))
	}
	if d.IterDiffs > allow.IterDiffs || d.IterAbs > allow.IterAbs || d.MaxRelCost > math.Max(allow.MaxRelCost, NaiveCostTol) {
		return d, fmt.Errorf("scopf: drift from the reference %+v exceeds %+v", d, allow)
	}
	return d, nil
}

// sameVerdict reports whether two outcomes of one scenario agree in
// everything that is not a float or an iteration count.
func sameVerdict(got, ref Outcome) bool {
	return got.Feasible == ref.Feasible && got.WarmUsed == ref.WarmUsed &&
		got.Projected == ref.Projected && got.Islanded == ref.Islanded &&
		got.Binding == ref.Binding && (got.Err != nil) == (ref.Err != nil)
}

// relCostDiff is |got.Cost − ref.Cost| relative to the larger of the
// two (0 when both are 0, as for two infeasible outcomes).
func relCostDiff(got, ref Outcome) float64 {
	d := math.Abs(got.Cost - ref.Cost)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(got.Cost), math.Abs(ref.Cost))
}
