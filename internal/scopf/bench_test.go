package scopf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// BenchmarkScreen times one N-1 contingency sweep on case14, on the
// topology-aware engine versus the naive per-scenario-rebuild baseline
// (cold screening: the pure structure-reuse comparison). The first
// invocation also writes BENCH_scopf.json (see writeScreenBenchReport),
// which adds the warm-projection sweep where the engine's headline
// speedup comes from.
func BenchmarkScreen(b *testing.B) {
	writeScreenBenchReport(b)
	sys := core.MustLoadSystem("case14")
	scenarios := Cross(loadDraws(sys.Case.NB(), 2, 33), true, Contingencies(sys.Case), nil, nil)
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := &Engine{Prepared: opf.Prepare(sys.Case), Workers: 1}
			if sum := Summarize(eng.Run(scenarios).Outcomes); sum.Feasible == 0 {
				b.Fatal("no feasible scenario")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sum := Summarize(ScreenNaive(sys.Case, nil, scenarios, 1)); sum.Feasible == 0 {
				b.Fatal("no feasible scenario")
			}
		}
	})
}

var screenReportOnce sync.Once

// writeScreenBenchReport self-times the screening engine against the
// naive baseline over fixed repetition counts and writes
// BENCH_scopf.json. Two sweeps are measured sequentially (workers=1, so
// the numbers are per-scenario costs, not parallel throughput):
//
//   - case14 N-1, cold: every topology keeps the layout; the engine wins
//     what structure reuse saves, and its outcomes are verified against
//     the naive path (MatchNaive: verdicts exact, iteration counts
//     and costs within the drift measured on this sweep, which is
//     recorded) before the numbers are written.
//   - case9 N-1, warm: every branch is rated, so the naive path silently
//     cold-solves all outage scenarios while the engine fits the
//     intact-system prediction to each outage (opf.AdaptStart) — the
//     tentpole speedup, with feasibility verified identical.
func writeScreenBenchReport(b *testing.B) {
	b.Helper()
	screenReportOnce.Do(func() {
		// measurePair times the two paths alternately (after one untimed
		// warm-up of each) so page-cache and allocator drift between the
		// first and second measurement cannot bias the ratio.
		measurePair := func(reps int, fa, fb func()) (aNs, bNs float64) {
			fa()
			fb()
			var ta, tb time.Duration
			for i := 0; i < reps; i++ {
				t0 := time.Now()
				fa()
				ta += time.Since(t0)
				t0 = time.Now()
				fb()
				tb += time.Since(t0)
			}
			return float64(ta.Nanoseconds()) / float64(reps), float64(tb.Nanoseconds()) / float64(reps)
		}

		// --- case14, cold, verdicts pinned --------------------------------
		sys14 := core.MustLoadSystem("case14")
		sc14 := Cross(loadDraws(sys14.Case.NB(), 4, 33), true, Contingencies(sys14.Case), nil, nil)
		var engOuts, naiveOuts []Outcome
		const reps = 2
		naiveNs, engineNs := measurePair(reps, func() {
			naiveOuts = ScreenNaive(sys14.Case, nil, sc14, 1)
		}, func() {
			engOuts = (&Engine{Prepared: opf.Prepare(sys14.Case), Workers: 1}).Run(sc14).Outcomes
		})
		// mustMatchNaive pins the engine to the naive path (MatchNaive:
		// every verdict exact, and no more drift in iteration counts and
		// costs than allow, the drift measured on the sweep when this pin
		// was written — none for a sweep that had none) and returns the
		// drift for the report.
		mustMatchNaive := func(name string, eng, naive []Outcome, allow Drift) Drift {
			d, err := MatchNaive(eng, naive, allow)
			if err != nil {
				b.Fatalf("%s: engine disagrees with naive: %v", name, err)
			}
			return d
		}
		coldDrift := mustMatchNaive("case14", engOuts, naiveOuts, Drift{})

		// --- case9, warm projection --------------------------------------
		sys9 := core.MustLoadSystem("case9")
		set, err := sys9.GenerateData(150, 5)
		if err != nil {
			b.Fatal(err)
		}
		m, err := sys9.TrainModel(mtl.VariantMTL, set, 300, 5, nil)
		if err != nil {
			b.Fatal(err)
		}
		sc9 := Cross(loadDraws(sys9.Case.NB(), 6, 7), true, Contingencies(sys9.Case), nil, nil)
		var warmEng, warmNaive []Outcome
		warmNaiveNs, warmEngineNs := measurePair(reps, func() {
			warmNaive = ScreenNaive(sys9.Case, m, sc9, 1)
		}, func() {
			warmEng = (&Engine{Prepared: opf.Prepare(sys9.Case), Model: m, Workers: 1}).Run(sc9).Outcomes
		})
		sumEng, sumNaive := Summarize(warmEng), Summarize(warmNaive)
		if sumEng.Feasible != sumNaive.Feasible {
			b.Fatalf("case9 warm: engine feasibility %d != naive %d", sumEng.Feasible, sumNaive.Feasible)
		}

		// --- generator outages, per-system -------------------------------
		// case14 cold is the structure-reuse comparison on the gen axis;
		// case9 warm adds AdaptStart (the naive path's rebuild drops the
		// unit's Pg/Qg columns and bound rows, so it silently cold-solves).
		gsc14 := Cross(loadDraws(sys14.Case.NB(), 4, 33), false, nil, GenContingencies(sys14.Case), nil)
		var genEng, genNaive []Outcome
		genNaiveNs, genEngineNs := measurePair(reps, func() {
			genNaive = ScreenNaive(sys14.Case, nil, gsc14, 1)
		}, func() {
			genEng = (&Engine{Prepared: opf.Prepare(sys14.Case), Workers: 1}).Run(gsc14).Outcomes
		})
		// The dropped unit decouples into an equivalent problem, not the
		// same one, so cold trajectories may drift: two scenarios by one
		// iteration each when the ceiling was set.
		genDrift := mustMatchNaive("case14 gen-outage", genEng, genNaive, Drift{IterDiffs: 2, IterAbs: 2})

		gsc9 := Cross(loadDraws(sys9.Case.NB(), 6, 7), false, nil, GenContingencies(sys9.Case), nil)
		var gwEng, gwNaive []Outcome
		gwNaiveNs, gwEngineNs := measurePair(reps, func() {
			gwNaive = ScreenNaive(sys9.Case, m, gsc9, 1)
		}, func() {
			gwEng = (&Engine{Prepared: opf.Prepare(sys9.Case), Model: m, Workers: 1}).Run(gsc9).Outcomes
		})
		gwSumEng, gwSumNaive := Summarize(gwEng), Summarize(gwNaive)
		if gwSumEng.Feasible != gwSumNaive.Feasible {
			b.Fatalf("case9 gen-outage warm: engine feasibility %d != naive %d", gwSumEng.Feasible, gwSumNaive.Feasible)
		}

		// --- N-2 branch pairs, per-system --------------------------------
		// case14 exhaustive pair set, engine vs naive (MatchNaive). case9 is
		// the islanding regime: every branch pair disconnects the 6-branch
		// ring, so the whole pair set is classified without a single solve.
		f14 := make(la.Vector, sys14.Case.NB())
		for i := range f14 {
			f14[i] = 1.1
		}
		cont14 := Contingencies(sys14.Case)
		pairSc14 := Cross([]la.Vector{f14}, false, nil, nil, AllPairs(cont14))
		var pairEng, pairNaive []Outcome
		pairNaiveNs, pairEngineNs := measurePair(1, func() {
			pairNaive = ScreenNaive(sys14.Case, nil, pairSc14, 1)
		}, func() {
			pairEng = (&Engine{Prepared: opf.Prepare(sys14.Case), Workers: 1}).Run(pairSc14).Outcomes
		})
		pairDrift := mustMatchNaive("case14 N-2 pair", pairEng, pairNaive, Drift{IterDiffs: 2, IterAbs: 2, MaxRelCost: 1e-8})

		pairSc9 := Cross(loadDraws(sys9.Case.NB(), 1, 7), false, nil, nil, AllPairs(Contingencies(sys9.Case)))
		t0 := time.Now()
		islOuts := (&Engine{Prepared: opf.Prepare(sys9.Case), Workers: 1}).Run(pairSc9).Outcomes
		islNs := float64(time.Since(t0).Nanoseconds())
		sumIsl := Summarize(islOuts)
		if sumIsl.Islanded != len(pairSc9) {
			b.Fatalf("case9 N-2: expected all %d pairs to island, got %d", len(pairSc9), sumIsl.Islanded)
		}

		perScen := func(ns float64, n int) float64 { return ns / float64(n) }
		report := map[string]any{
			"benchmark": "scopf-screen",
			"produced_by": "go test -bench Screen ./internal/scopf (self-timed section; sequential workers=1, " +
				"see EXPERIMENTS.md §N-1 screening)",
			"case14_cold": map[string]any{
				"scenarios":              len(sc14),
				"contingencies":          len(sc14)/4 - 1,
				"naive_ns_per_scenario":  perScen(naiveNs, len(sc14)),
				"engine_ns_per_scenario": perScen(engineNs, len(sc14)),
				"speedup":                naiveNs / engineNs,
				"verdicts_match":         true, // MatchNaive above, b.Fatal otherwise
				"iteration_count_diffs":  coldDrift.IterDiffs,
				"iteration_drift_total":  coldDrift.IterAbs,
				"max_rel_cost_diff":      coldDrift.MaxRelCost,
			},
			"case9_warm_projection": map[string]any{
				"scenarios":              len(sc9),
				"contingencies":          len(sc9)/6 - 1,
				"naive_ns_per_scenario":  perScen(warmNaiveNs, len(sc9)),
				"engine_ns_per_scenario": perScen(warmEngineNs, len(sc9)),
				"speedup":                warmNaiveNs / warmEngineNs,
				"naive_warm_hits":        sumNaive.WarmConverged,
				"engine_warm_hits":       sumEng.WarmConverged,
				"engine_projected":       sumEng.Projected,
				"naive_mean_iterations":  sumNaive.MeanIterations,
				"engine_mean_iterations": sumEng.MeanIterations,
				"feasible_match":         true, // verified above, b.Fatal otherwise
			},
			"gen_outage": map[string]any{
				"case14_cold": map[string]any{
					"scenarios":              len(gsc14),
					"naive_ns_per_scenario":  perScen(genNaiveNs, len(gsc14)),
					"engine_ns_per_scenario": perScen(genEngineNs, len(gsc14)),
					"speedup":                genNaiveNs / genEngineNs,
					"verdicts_match":         true, // MatchNaive above, b.Fatal otherwise
					"iteration_count_diffs":  genDrift.IterDiffs,
					"iteration_drift_total":  genDrift.IterAbs,
					"max_rel_cost_diff":      genDrift.MaxRelCost,
				},
				"case9_warm": map[string]any{
					"scenarios":              len(gsc9),
					"naive_ns_per_scenario":  perScen(gwNaiveNs, len(gsc9)),
					"engine_ns_per_scenario": perScen(gwEngineNs, len(gsc9)),
					"speedup":                gwNaiveNs / gwEngineNs,
					"naive_warm_hits":        gwSumNaive.WarmConverged,
					"engine_warm_hits":       gwSumEng.WarmConverged,
					"engine_projected":       gwSumEng.Projected,
					"feasible_match":         true, // verified above, b.Fatal otherwise
				},
			},
			"n2_pairs": map[string]any{
				"case14_cold": map[string]any{
					"scenarios":              len(pairSc14),
					"naive_ns_per_scenario":  perScen(pairNaiveNs, len(pairSc14)),
					"engine_ns_per_scenario": perScen(pairEngineNs, len(pairSc14)),
					"speedup":                pairNaiveNs / pairEngineNs,
					"verdicts_match":         true, // MatchNaive above, b.Fatal otherwise
					"iteration_count_diffs":  pairDrift.IterDiffs,
					"iteration_drift_total":  pairDrift.IterAbs,
					"max_rel_cost_diff":      pairDrift.MaxRelCost,
				},
				"case9_islanding": map[string]any{
					"pairs":          len(pairSc9),
					"islanded":       sumIsl.Islanded,
					"ns_per_pair":    perScen(islNs, len(pairSc9)),
					"solver_invoked": false, // all pairs classified by the connectivity check
				},
			},
			"warm_speedup": warmNaiveNs / warmEngineNs, // unitless ratio (naive/engine wall clock)
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		// The package's tests run in internal/scopf; the report lives at
		// the repository root with the other BENCH files.
		if err := os.WriteFile(filepath.Join("..", "..", "BENCH_scopf.json"), append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Printf("BENCH_scopf.json: warm N-1 screen %.2fx naive (projection: %d/%d warm vs %d/%d), cold case14 %.2fx verdicts match\n",
			warmNaiveNs/warmEngineNs, sumEng.WarmConverged, len(sc9), sumNaive.WarmConverged, len(sc9),
			naiveNs/engineNs)
		fmt.Printf("BENCH_scopf.json: gen-outage %.2fx (case14 cold) %.2fx (case9 warm); N-2 pairs %.2fx\n",
			genNaiveNs/genEngineNs, gwNaiveNs/gwEngineNs, pairNaiveNs/pairEngineNs)
	})
}
