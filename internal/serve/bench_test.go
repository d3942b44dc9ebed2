package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// The online model lifecycle study (BENCH_lifecycle.json) runs the
// closed loop once on the package fixture's case9 model: captured
// served traffic, a drift-triggered retrain through the offline
// training path, a canary-gated promotion. It records retrain
// wall-clock, the capture and canary parameters, and the warm-iteration
// counts before the drift and after the promotion, and enforces the
// loop with b.Fatal: the drift fires on the window it must, a candidate
// whose arm statistics regress never reaches promotion, and the
// promoted candidate warm-converges on every fresh probe.

const (
	lcBenchDriftWindow  = 8
	lcBenchBaseline     = 2
	lcBenchCanaryFrac   = 0.5
	lcBenchCanaryWindow = 4
	lcBenchProbes       = 8
)

var lifecycleReportOnce sync.Once

// BenchmarkLifecycle writes BENCH_lifecycle.json on its first
// invocation (see writeLifecycleBenchReport), then times the hot swap:
// one atomic store of the version-tagged model, what a promotion costs
// the serving process.
func BenchmarkLifecycle(b *testing.B) {
	lifecycleReportOnce.Do(func() { writeLifecycleBenchReport(b) })
	sys, m := loadFixture(b)
	s := New(Config{})
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
func probeWarm(sys *core.System, m opf.Predictor, n int, seed float64) (hits int, meanIters float64) {
	var iters int
	for i := 0; i < n; i++ {
		factors := make([]float64, sys.Case.NB())
		for j := range factors {
			factors[j] = 1.0 + seed + 0.002*float64(i)
		}
		w := sys.SolveWarm(m, factors, dataset.InputVector(sys.OPF.Perturb(factors).Case))
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
// promote once and writes the repository-root BENCH_lifecycle.json.
func writeLifecycleBenchReport(b *testing.B) {
	sys, m := loadFixture(b)
	reg, err := lifecycle.NewRegistry(b.TempDir(), nil)
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
	preHits, preIters := probeWarm(sys, m, lcBenchProbes, 0.001)
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
	candHits, candIters := probeWarm(sys, cand, lcBenchCanaryWindow, 0.003)
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
	postHits, postIters := probeWarm(sys, cand, lcBenchProbes, 0.001)
	if postHits != lcBenchProbes {
		b.Fatalf("promoted candidate warm-converged on %d/%d probes", postHits, lcBenchProbes)
	}

	st := mgr.Stats()
	buf, err := json.MarshalIndent(map[string]any{
		"benchmark": "lifecycle",
		"produced_by": "go test -run '^$' -bench Lifecycle -benchtime 1x ./internal/serve " +
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
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("..", "..", "BENCH_lifecycle.json"), append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	fmt.Printf("BENCH_lifecycle.json: retrain %.0f ms on %d captured pairs, canary %s, warm iters %.1f → %.1f\n",
		float64(retrain.Nanoseconds())/1e6, st.Captured, d, preIters, postIters)
}
