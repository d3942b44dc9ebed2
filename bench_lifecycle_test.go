package smartpgsim_test

// Online model lifecycle benchmark (BENCH_lifecycle.json). The study
// runs the closed loop once on case9 — captured served traffic, a
// drift-triggered retrain through the offline training path, a
// canary-gated promotion — and records its costs: retrain wall-clock,
// capture/canary parameters, and the warm-iteration counts before the
// drift and after the promotion. The canary gate is enforced with
// b.Fatal: a candidate whose measured arm statistics regress must never
// reach promotion, and the promoted candidate must warm-converge on
// fresh probe traffic. The timed operation is the hot swap itself (one
// atomic store of the version-tagged model), the latency a promotion
// adds to the serving process.

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/mtl"
	"repro/internal/opf"
	"repro/internal/serve"
)

const (
	lcBenchDriftWindow  = 8
	lcBenchBaseline     = 2
	lcBenchCanaryFrac   = 0.5
	lcBenchCanaryWindow = 4
	lcBenchProbes       = 8
)

var lifecycleReportOnce sync.Once

// BenchmarkLifecycle writes BENCH_lifecycle.json on first invocation
// (the closed-loop study), then times the hot swap: what one promotion
// costs the serving process.
func BenchmarkLifecycle(b *testing.B) {
	writeLifecycleBenchReport(b)
	sys := core.MustLoadSystem("case9")
	set, err := sys.GenerateData(40, 3)
	if err != nil {
		b.Fatal(err)
	}
	train, _ := set.Split(0.8)
	m, err := sys.TrainModel(mtl.VariantSmartPGSim, train, 60, 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	s := serve.New(serve.Config{})
	defer s.Close()
	s.AddSystem(sys, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SwapModel(sys.Name, m, fmt.Sprintf("v-bench-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// probeWarm solves n fresh instances warm with the given model and
// returns the warm hit count and the mean warm iterations over hits.
func probeWarm(b *testing.B, sys *core.System, m opf.Predictor, n int, seed float64) (hits int, meanIters float64) {
	b.Helper()
	var iters int
	for i := 0; i < n; i++ {
		factors := make([]float64, sys.Case.NB())
		for j := range factors {
			factors[j] = 1.0 + seed + 0.002*float64(i)
		}
		w := sys.SolveWarm(m, factors, sys.InstanceInput(factors))
		if w.Converged {
			hits++
			iters += w.Iterations
		}
	}
	if hits > 0 {
		meanIters = float64(iters) / float64(hits)
	}
	return hits, meanIters
}

// writeLifecycleBenchReport runs capture → drift → retrain → canary →
// promote once and writes BENCH_lifecycle.json.
func writeLifecycleBenchReport(b *testing.B) {
	b.Helper()
	lifecycleReportOnce.Do(func() {
		sys := core.MustLoadSystem("case9")
		set, err := sys.GenerateData(40, 3)
		if err != nil {
			b.Fatal(err)
		}
		train, _ := set.Split(0.8)
		m, err := sys.TrainModel(mtl.VariantSmartPGSim, train, 60, 7, nil)
		if err != nil {
			b.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "lifecycle-bench")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		reg, err := lifecycle.NewRegistry(dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reg.SaveIncumbent(sys.Name, m, "bench boot"); err != nil {
			b.Fatal(err)
		}
		mgr, err := lifecycle.NewManager(lifecycle.Config{
			System:  sys,
			Variant: mtl.VariantSmartPGSim,
			Drift:   lifecycle.DriftConfig{Window: lcBenchDriftWindow, Baseline: lcBenchBaseline},
			Canary:  lifecycle.CanaryConfig{Frac: lcBenchCanaryFrac, Window: lcBenchCanaryWindow},

			RetrainEpochs: 60,
			RetrainSeed:   11,
			Registry:      reg,
		})
		if err != nil {
			b.Fatal(err)
		}

		// Pre-drift serving quality of the incumbent on probe traffic.
		preHits, preIters := probeWarm(b, sys, m, lcBenchProbes, 0.001)
		if preHits == 0 {
			b.Fatal("incumbent does not warm-converge on probe traffic")
		}

		// Served traffic: the capture tap sees 24 warm solves, generated
		// through the exact dataset path serving captures. The final
		// window's warm starts stop converging — the drift edge.
		traffic, err := sys.GenerateData(3*lcBenchDriftWindow, 5)
		if err != nil {
			b.Fatal(err)
		}
		driftAt := -1
		for i, smp := range traffic.Samples {
			rec := lifecycle.Record{
				Factors: smp.Factors, Input: smp.Input,
				X: smp.X, Lam: smp.Lam, Mu: smp.Mu, Z: smp.Z,
				Cost: smp.Cost, Iterations: smp.Iterations,
				Warm:          true,
				WarmConverged: i < 2*lcBenchDriftWindow,
			}
			if mgr.Observe(rec) == lifecycle.ActionRetrain {
				driftAt = i
			}
		}
		if driftAt != 3*lcBenchDriftWindow-1 {
			b.Fatalf("drift fired at observation %d, want %d", driftAt, 3*lcBenchDriftWindow-1)
		}

		// Drift-triggered retrain through the offline path, wall-clocked.
		t0 := time.Now()
		cand, candID, err := mgr.Retrain()
		retrain := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}

		// Canary: the incumbent arm reflects the degraded regime (no warm
		// hits), the candidate arm carries measured probe outcomes of the
		// retrained model.
		candHits, candIters := probeWarm(b, sys, cand, lcBenchCanaryWindow, 0.003)
		c := mgr.Canary()
		for i := 0; i < lcBenchCanaryWindow; i++ {
			c.Observe(false, false, 0)
			c.Observe(true, i < candHits, int(candIters+0.5))
		}
		d := mgr.Decide()
		incHit, _, candHitRate, _ := c.Stats()
		if d == lifecycle.Promote && candHitRate < incHit-lcBenchCanaryFrac*0.1 {
			b.Fatalf("canary promoted a regressing candidate (hit %.2f vs %.2f)", candHitRate, incHit)
		}
		if d != lifecycle.Promote {
			b.Fatalf("canary decision = %v, want promote (candidate hit %d/%d)", d, candHits, lcBenchCanaryWindow)
		}
		if err := mgr.CompletePromotion(); err != nil {
			b.Fatal(err)
		}

		// Post-promotion serving quality of the promoted candidate.
		postHits, postIters := probeWarm(b, sys, cand, lcBenchProbes, 0.001)
		if postHits != lcBenchProbes {
			b.Fatalf("promoted candidate warm-converged on %d/%d probes", postHits, lcBenchProbes)
		}

		st := mgr.Stats()
		report := map[string]any{
			"benchmark": "lifecycle",
			"produced_by": "go test -run '^$' -bench BenchmarkLifecycle -benchtime 1x . " +
				"(closed-loop capture/drift/retrain/canary study; see EXPERIMENTS.md §Online model lifecycle)",
			"system": sys.Name,
			"drift": map[string]any{
				"window":   lcBenchDriftWindow,
				"baseline": lcBenchBaseline,
				"fired_at": driftAt,
			},
			"canary": map[string]any{
				"frac":     lcBenchCanaryFrac,
				"window":   lcBenchCanaryWindow,
				"decision": d.String(),
			},
			"captured_pairs":                 st.Captured,
			"retrain_ms":                     float64(retrain.Nanoseconds()) / 1e6,
			"candidate":                      candID,
			"pre_drift_warm_iters_mean":      preIters,
			"pre_drift_warm_hits":            preHits,
			"post_promotion_warm_iters_mean": postIters,
			"post_promotion_warm_hits":       postHits,
			"probes":                         lcBenchProbes,
			"promotions":                     st.Promotions,
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_lifecycle.json", append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Printf("BENCH_lifecycle.json: retrain %.0f ms on %d captured pairs, canary %s, warm iters %.1f → %.1f\n",
			float64(retrain.Nanoseconds())/1e6, st.Captured, d, preIters, postIters)
	})
}
