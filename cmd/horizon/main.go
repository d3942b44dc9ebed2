// Command horizon runs multi-period OPF trajectories: a deterministic
// synthetic load forecast (smooth ramp profile × per-step noise) solved
// step by step with per-generator ramp limits coupling each step to the
// previous dispatch. Warm-start modes: chain (each step starts from the
// previous step's full primal/dual solution, projected across layout
// changes), predict (a trained MTL model predicts each step's start) and
// cold. Multiple trajectories fan out on the parallel worker pool with
// per-trajectory worker affinity; results are bit-identical for any
// worker count and replay the /v1/trajectory stream exactly.
//
// Usage:
//
//	horizon -case case14 -steps 24
//	horizon -case case14 -steps 24 -mode cold               # cold baseline
//	horizon -case case9 -steps 12 -train 60 -mode predict   # model warm starts
//	horizon -case case30 -steps 24 -interval 15 -ramp 0.5   # tighter ramp coupling
//	horizon -case case14 -steps 24 -trajectories 8 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"repro/internal/batch"
	"repro/internal/casegen"
	"repro/internal/core"
	"repro/internal/horizon"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// maxSteps bounds one trajectory; far above any realistic horizon (a
// week of 5-minute intervals) while keeping typos like -steps 1e9 from
// running forever.
const maxSteps = 4096

func main() {
	log.SetFlags(0)
	log.SetPrefix("horizon: ")
	caseName := flag.String("case", "case9", "built-in system (case5, case9, case14, case30, case39, case57, case118, case300)")
	steps := flag.Int("steps", 12, "trajectory length in dispatch intervals")
	interval := flag.Float64("interval", 5, "minutes per dispatch interval; scales the per-step ramp window (-ramp is per hour)")
	modeName := flag.String("mode", "chain", "warm-start mode: chain, predict or cold")
	seed := flag.Int64("seed", 1, "forecast noise seed (same seed replays bit-identically)")
	amp := flag.Float64("amp", 0.05, "amplitude of the smooth load ramp profile, in [0, 1)")
	spread := flag.Float64("spread", 0.02, "half-width of the per-step forecast noise, in [0, 1)")
	ramp := flag.Float64("ramp", 1.0, "ramp limit as a fraction of each unit's dispatch range per hour (0 disables ramp coupling)")
	nTraj := flag.Int("trajectories", 1, "independent trajectories to fan out (seeds seed, seed+1, …)")
	trainN := flag.Int("train", 0, "train a warm-start model on this many samples first (needed for -mode predict)")
	epochs := flag.Int("epochs", 0, "training epochs for -train (0 = per-system default)")
	variantName := flag.String("variant", "mtl", "model variant for -train: sep, mtl or smartpgsim")
	workers := flag.Int("workers", 0, "worker pool size (0 = PGSIM_WORKERS or all cores)")
	jsonOut := flag.Bool("json", false, "print a machine-readable JSON summary instead of tables")
	verbose := flag.Bool("v", false, "print one row per step")
	flag.Parse()
	batch.SetDefaultWorkers(*workers)

	// Explicit validation with actionable errors: a zero or negative
	// horizon or interval is always a typo, not a degenerate run.
	if *steps <= 0 {
		log.Fatalf("-steps %d out of range: a trajectory needs a positive number of intervals (want 1..%d)", *steps, maxSteps)
	}
	if *steps > maxSteps {
		log.Fatalf("-steps %d exceeds the limit of %d intervals", *steps, maxSteps)
	}
	if *interval <= 0 || math.IsNaN(*interval) || math.IsInf(*interval, 0) {
		log.Fatalf("-interval %v out of range: the dispatch interval must be a positive number of minutes", *interval)
	}
	if *ramp < 0 || math.IsNaN(*ramp) {
		log.Fatalf("-ramp %v out of range: want a non-negative fraction of the dispatch range per hour (0 disables)", *ramp)
	}
	if *nTraj <= 0 {
		log.Fatalf("-trajectories %d out of range: want a positive count", *nTraj)
	}
	mode, err := horizon.ParseMode(*modeName)
	if err != nil {
		log.Fatal(err)
	}
	if mode == horizon.ModePredict && *trainN <= 0 {
		log.Fatal("-mode predict needs a trained model: set -train N")
	}

	c, err := casegen.Paper(*caseName)
	if err != nil {
		log.Fatal(err)
	}
	base := opf.Prepare(c)

	var model *mtl.Model
	if *trainN > 0 {
		variant, err := mtl.ParseVariant(*variantName)
		if err != nil {
			log.Fatal(err)
		}
		sys := &core.System{Name: c.Name, Case: c, OPF: base}
		ep := *epochs
		if ep == 0 {
			_, ep = core.TrainingDefaults(c.NB())
		}
		log.Printf("training: %d samples, %d epochs on %s", *trainN, ep, c.Name)
		set, err := sys.GenerateData(*trainN, *seed)
		if err != nil {
			log.Fatal(err)
		}
		train, _ := set.Split(0.8)
		model, err = sys.TrainModel(variant, train, ep, *seed, nil)
		if err != nil {
			log.Fatal(err)
		}
	}

	// The per-step ramp window is the hourly rate scaled to the interval.
	frac := *ramp * *interval / 60
	rampVec := horizon.RampFromRange(base, frac)

	trajs := make([]*horizon.Trajectory, *nTraj)
	for i := range trajs {
		trajs[i], err = horizon.Synthetic(c.NB(), *steps, *seed+int64(i), *amp, *spread)
		if err != nil {
			log.Fatal(err)
		}
	}

	r := &horizon.Runner{
		Base:     c,
		Prepared: base,
		Mode:     mode,
		Model:    model,
		RampUp:   rampVec,
		RampDown: rampVec,
		Workers:  *workers,
	}
	t0 := time.Now()
	results, err := r.RunBatch(trajs)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0)

	if *jsonOut {
		printJSON(c.Name, mode, *steps, *interval, frac, results, elapsed)
		return
	}
	total := *nTraj * *steps
	fmt.Printf("case %s: %d trajectories × %d steps (%s mode, %.0f-minute intervals) in %v — %.1f steps/s\n",
		c.Name, *nTraj, *steps, mode, *interval, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	if frac > 0 {
		fmt.Printf("ramp: %.1f%% of each unit's dispatch range per step\n", 100*frac)
	}
	fmt.Printf("workers: %d\n", batch.Workers(*workers))
	fmt.Printf("\n%6s %10s %6s %6s %8s %10s %10s\n", "traj", "converged", "warm", "cold", "iters", "binding", "solve")
	for i, res := range results {
		binding := 0
		for _, sr := range res.Steps {
			binding += sr.RampBinding
		}
		fmt.Printf("%6d %7d/%-2d %6d %6d %8d %10d %10v\n",
			i, res.Converged, len(res.Steps), res.WarmHits, res.ColdRestarts,
			res.Iterations, binding, res.SolveTime.Round(time.Millisecond))
	}
	if *verbose {
		for i, res := range results {
			fmt.Printf("\ntrajectory %d (seed %d):\n", i, *seed+int64(i))
			fmt.Printf("%6s %10s %6s %8s %10s %14s\n", "step", "status", "warm", "binding", "iters", "cost ($/hr)")
			for _, sr := range res.Steps {
				status := "ok"
				switch {
				case sr.Err != nil:
					status = "error"
				case !sr.Converged:
					status = "diverged"
				}
				warm := "-"
				if sr.WarmUsed {
					warm = "yes"
				} else if sr.ColdRestart {
					warm = "cold"
				}
				fmt.Printf("%6d %10s %6s %8d %10d %14.2f\n",
					sr.Step, status, warm, sr.RampBinding, sr.Iterations, sr.Cost)
			}
		}
	}
}

// printJSON emits the machine-readable summary (the cmd-line analogue
// of POST /v1/trajectory's final summary line, one entry per trajectory).
func printJSON(name string, mode horizon.Mode, steps int, interval, frac float64, results []*horizon.Result, elapsed time.Duration) {
	out := make([]map[string]any, 0, len(results))
	for i, res := range results {
		binding := 0
		for _, sr := range res.Steps {
			binding += sr.RampBinding
		}
		out = append(out, map[string]any{
			"trajectory":    i,
			"steps":         len(res.Steps),
			"converged":     res.Converged,
			"warm_hits":     res.WarmHits,
			"cold_restarts": res.ColdRestarts,
			"iterations":    res.Iterations,
			"ramp_binding":  binding,
			"solve_us":      res.SolveTime.Microseconds(),
		})
	}
	report := map[string]any{
		"case":          name,
		"mode":          mode.String(),
		"steps":         steps,
		"interval_min":  interval,
		"ramp_frac":     frac,
		"elapsed_us":    elapsed.Microseconds(),
		"steps_per_sec": float64(len(results)*steps) / elapsed.Seconds(),
		"trajectories":  out,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(report)
}
