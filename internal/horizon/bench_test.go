package horizon

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mtl"
)

// The trajectory study: on each system the same synthetic load
// trajectory is solved cold, with warm-start chaining (each step starts
// from the previous step's full primal/dual solution) and with per-step
// model prediction. The report records both speedups over cold and the
// per-system winner, the chain-vs-predict crossover. internal/serve's
// TestTrajectoryStreamReplay pins the served stream of this trajectory
// on case14 to the offline runner.

// trajBenchProfile holds the offline training sizes of the predict mode
// per system (the paper-bench scale).
var trajBenchProfile = map[string]struct{ draws, epochs int }{
	"case14":  {80, 200},
	"case57":  {48, 150},
	"case118": {24, 100},
}

const (
	trajBenchSteps  = 8
	trajBenchSeed   = 21
	trajBenchAmp    = 0.03
	trajBenchSpread = 0.01
	trajBenchFrac   = 0.2
)

var trajectoryReportOnce sync.Once

// BenchmarkTrajectory times one chain-mode trajectory on case14 and
// fails unless it converges; the first invocation writes
// BENCH_trajectory.json (see writeTrajectoryBenchReport).
func BenchmarkTrajectory(b *testing.B) {
	trajectoryReportOnce.Do(func() { writeTrajectoryBenchReport(b) })
	sys := core.MustLoadSystem("case14")
	traj, err := Synthetic(sys.Case.NB(), trajBenchSteps, trajBenchSeed, trajBenchAmp, trajBenchSpread)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := runTrajMode(b, sys, ModeChain, nil, traj); res.Converged == 0 {
			b.Fatal("chain trajectory converged on no step")
		}
	}
}

// runTrajMode solves traj on sys in one mode (Workers=1: per-step costs,
// not throughput).
func runTrajMode(b *testing.B, sys *core.System, mode Mode, m *mtl.Model, traj *Trajectory) *Result {
	ramp := RampFromRange(sys.OPF, trajBenchFrac)
	r := &Runner{Prepared: sys.OPF, Mode: mode, Model: m, RampUp: ramp, RampDown: ramp, Workers: 1}
	out, err := r.RunBatch([]*Trajectory{traj})
	if err != nil {
		b.Fatalf("%s %s trajectory: %v", sys.Name, mode, err)
	}
	return out[0]
}

// writeTrajectoryBenchReport measures the chain-vs-predict crossover on
// case14, case57 and case118 and writes the repository-root
// BENCH_trajectory.json. It fails if a system's cold trajectory
// converges on no step.
func writeTrajectoryBenchReport(b *testing.B) {
	systems := map[string]map[string]any{}
	for _, name := range []string{"case14", "case57", "case118"} {
		prof := trajBenchProfile[name]
		sys := core.MustLoadSystem(name)
		set, err := sys.GenerateData(prof.draws, 42+int64(sys.Case.NB()))
		if err != nil {
			b.Fatal(err)
		}
		train, _ := set.Split(0.75)
		model, err := sys.TrainModel(mtl.VariantSmartPGSim, train, prof.epochs, 17, nil)
		if err != nil {
			b.Fatal(err)
		}
		traj, err := Synthetic(sys.Case.NB(), trajBenchSteps, trajBenchSeed, trajBenchAmp, trajBenchSpread)
		if err != nil {
			b.Fatal(err)
		}

		// One untimed warm-up per mode, then alternate the timed
		// repetitions so allocator drift cannot bias the ratios.
		modes := []Mode{ModeCold, ModeChain, ModePredict}
		results := make([]*Result, len(modes))
		ns := make([]float64, len(modes))
		for i, mode := range modes {
			results[i] = runTrajMode(b, sys, mode, model, traj)
		}
		const reps = 2
		for rep := 0; rep < reps; rep++ {
			for i, mode := range modes {
				t0 := time.Now()
				runTrajMode(b, sys, mode, model, traj)
				ns[i] += float64(time.Since(t0).Nanoseconds())
			}
		}
		coldNs, chainNs, predictNs := ns[0]/reps, ns[1]/reps, ns[2]/reps
		cold, chain, predict := results[0], results[1], results[2]
		if cold.Converged == 0 {
			b.Fatalf("%s: cold trajectory did not converge at all", name)
		}
		winner := "chain"
		if predictNs < chainNs {
			winner = "predict"
		}
		systems[name] = map[string]any{
			"buses": sys.Case.NB(), "draws": prof.draws, "epochs": prof.epochs,
			"cold_ms_per_step":        coldNs / 1e6 / trajBenchSteps,
			"chain_ms_per_step":       chainNs / 1e6 / trajBenchSteps,
			"predict_ms_per_step":     predictNs / 1e6 / trajBenchSteps,
			"chain_speedup_vs_cold":   coldNs / chainNs,
			"predict_speedup_vs_cold": coldNs / predictNs,
			"winner":                  winner,
			"cold_iterations":         cold.Iterations,
			"chain_iterations":        chain.Iterations,
			"predict_iterations":      predict.Iterations,
			"chain_warm_hits":         chain.WarmHits,
			"predict_warm_hits":       predict.WarmHits,
			"converged":               cold.Converged,
		}
		fmt.Printf("BENCH_trajectory.json: %s chain %.2fx, predict %.2fx vs cold (winner %s, %d/%d warm-chained)\n",
			name, coldNs/chainNs, coldNs/predictNs, winner, chain.WarmHits, trajBenchSteps)
	}
	buf, err := json.MarshalIndent(map[string]any{
		"benchmark": "trajectory",
		"produced_by": "go test -run '^$' -bench Trajectory -benchtime 1x ./internal/horizon " +
			"(chain-vs-predict crossover; see EXPERIMENTS.md §Trajectory crossover)",
		"steps": trajBenchSteps, "seed": trajBenchSeed,
		"amp": trajBenchAmp, "spread": trajBenchSpread, "ramp_frac": trajBenchFrac,
		"systems": systems,
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("..", "..", "BENCH_trajectory.json"), append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
