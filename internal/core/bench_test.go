package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mtl"
)

// paperBenchProfile holds the bench-profile offline sizes per system,
// smaller than TrainingDefaults so a full sweep stays in minutes.
// case1354 is the beyond-paper scaling row: the paper's own evaluation
// stops at case300, so its row shows that the warm-start pipeline and
// the blocked KKT kernel carry past the paper's scale, not a comparison
// against a paper number.
var paperBenchProfile = map[string]struct{ draws, epochs int }{
	"case30":   {64, 200},
	"case57":   {48, 150},
	"case118":  {24, 100},
	"case300":  {12, 60},
	"case1354": {8, 40},
}

// BenchmarkPaperSystems runs the full offline+online pipeline once per
// paper-scale system — dataset generation, Smart-PGSim training,
// warm-vs-cold evaluation — at the bench-profile sizes, merges the
// system's row into the repository-root BENCH_paper.json (see
// writePaperBenchReport), then times one warm online solve per b.N.
// cmd/results renders the file into RESULTS.md, the comparison against
// the paper's 2.60× average-speedup claim. -short skips case1354, whose
// one cold solve takes seconds; its row on disk is kept.
func BenchmarkPaperSystems(b *testing.B) {
	for _, name := range []string{"case30", "case57", "case118", "case300", "case1354"} {
		b.Run(name, func(b *testing.B) {
			if testing.Short() && name == "case1354" {
				b.Skip("case1354 skipped under -short; run without it for the quotable row")
			}
			benchPaperSystem(b, name)
		})
	}
}

func benchPaperSystem(b *testing.B, name string) {
	prof := paperBenchProfile[name]
	sys := MustLoadSystem(name)
	set, err := sys.GenerateData(prof.draws, 42+int64(sys.Case.NB()))
	if err != nil {
		b.Fatal(err)
	}
	train, val := set.Split(0.75)
	model, err := sys.TrainModel(mtl.VariantSmartPGSim, train, prof.epochs, 17, nil)
	if err != nil {
		b.Fatal(err)
	}
	ev := Evaluate(sys, model, val, 0)

	lay := sys.OPF.Lay
	writePaperBenchReport(b, name, map[string]any{
		"buses": sys.Case.NB(), "gens": sys.Case.NG(), "branches": sys.Case.NL(),
		"rated_branches": lay.NLRated, "neq": lay.NEq, "niq": lay.NIq,
		"draws": prof.draws, "epochs": prof.epochs, "problems": ev.NProblems,
		"cold_iters": ev.IterMIPS, "warm_iters": ev.IterSmart,
		"cold_ms_per_problem": float64(ev.TimeMIPS.Microseconds()) / 1000 / float64(ev.NProblems),
		"warm_ms_per_problem": float64(ev.TimeSmart.Microseconds()) / 1000 / float64(ev.NProblems),
		"success_rate":        ev.SR,
		"speedup":             ev.SU,
		"optimality_gap":      ev.CostDelta,
		"kkt_ordering":        sys.OPF.Ordering().String(),
	})

	s := &val.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SolveWarm(model, s.Factors, s.Input)
	}
}

// writePaperBenchReport merges one system's row into the
// repository-root BENCH_paper.json. Rows already on disk are kept, so a
// filtered run (CI's case57 smoke) never truncates a full sweep's
// report, and the file is rewritten after every system, so even an
// interrupted sweep leaves a consistent report.
func writePaperBenchReport(b *testing.B, name string, row map[string]any) {
	path := filepath.Join("..", "..", "BENCH_paper.json")
	var report struct {
		Systems map[string]map[string]any `json:"systems"`
	}
	if buf, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(buf, &report) // a corrupt or absent file is rebuilt from this run
	}
	if report.Systems == nil {
		report.Systems = map[string]map[string]any{}
	}
	report.Systems[name] = row
	sum := 0.0
	for _, r := range report.Systems {
		sum += r["speedup"].(float64)
	}
	buf, err := json.MarshalIndent(map[string]any{
		"benchmark": "paper-systems",
		"produced_by": "go test -run '^$' -bench PaperSystems -benchtime 1x ./internal/core " +
			"(bench-profile offline sizes; see EXPERIMENTS.md §Paper-scale sweep)",
		"paper_claim": map[string]any{
			"avg_speedup": 2.60,
			"source":      "conf_sc_DongXKL20 abstract: average 2.60x over MIPS on IEEE systems up to 300 buses",
		},
		"measured_avg_speedup": sum / float64(len(report.Systems)),
		"systems":              report.Systems,
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	fmt.Printf("BENCH_paper.json: %s warm speedup %.2fx (SR %.0f%%), %d/%d systems on record\n",
		name, row["speedup"].(float64), row["success_rate"].(float64)*100, len(report.Systems), len(paperBenchProfile))
}

// ablation holds the case9 dataset both design ablations train on and
// the last model each has trained; a process trains and prints each
// ablation once.
var ablation struct {
	once       sync.Once
	sys        *System
	train, val *dataset.Set
	err        error
	last       map[string]*mtl.Model
}

// ablate trains one MTL model per configuration, 120 epochs each, and
// prints each one's final supervised loss, speedup and success rate
// (DESIGN.md §6; no command prints them). It returns the system, the
// training set and the last model.
func ablate(b *testing.B, name string, trainSeed int64, cfgs ...mtl.Config) (*System, *dataset.Set, *mtl.Model) {
	a := &ablation
	a.once.Do(func() {
		a.sys, a.last = MustLoadSystem("case9"), map[string]*mtl.Model{}
		var set *dataset.Set
		if set, a.err = a.sys.GenerateData(150, 101); a.err == nil {
			a.train, a.val = set.Split(0.8)
		}
	})
	if a.err != nil {
		b.Fatal(a.err)
	}
	if m, ok := a.last[name]; ok {
		return a.sys, a.train, m
	}
	var m *mtl.Model
	for _, cfg := range cfgs {
		m = mtl.New(a.sys.OPF.Lay, cfg)
		hist, err := mtl.Train(m, nil, a.train, mtl.TrainConfig{Epochs: 120, BatchSize: 16, Seed: trainSeed})
		if err != nil {
			b.Fatal(err)
		}
		ev := Evaluate(a.sys, m, a.val, 12)
		fmt.Printf("Ablation hierarchy=%-5v detachPeriod=%d finalLoss=%.4f SU=%.2fx SR=%.0f%%\n",
			cfg.Hierarchy, cfg.DetachPeriod, hist.Supervised[len(hist.Supervised)-1], ev.SU, ev.SR*100)
	}
	a.last[name] = m
	return a.sys, a.train, m
}

// BenchmarkAblationHierarchy compares MTL training with and without the
// physics-dependent head hierarchy; the timed operation is one training
// epoch.
func BenchmarkAblationHierarchy(b *testing.B) {
	sys, train, _ := ablate(b, "hierarchy", 3,
		mtl.Config{Variant: mtl.VariantMTL, Hierarchy: true, DetachPeriod: 4, Seed: 31},
		mtl.Config{Variant: mtl.VariantMTL, Hierarchy: false, DetachPeriod: 4, Seed: 31})
	m := mtl.New(sys.OPF.Lay, mtl.Config{Variant: mtl.VariantMTL, Hierarchy: true, Seed: 31})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mtl.Train(m, nil, train, mtl.TrainConfig{Epochs: 1, BatchSize: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDetach compares training with and without the detach
// (feature prioritization) knob; the timed operation is one prediction
// of the detaching model.
func BenchmarkAblationDetach(b *testing.B) {
	_, train, m := ablate(b, "detach", 5,
		mtl.Config{Variant: mtl.VariantMTL, Hierarchy: true, DetachPeriod: 0, Seed: 33},
		mtl.Config{Variant: mtl.VariantMTL, Hierarchy: true, DetachPeriod: 4, Seed: 33})
	in := train.Samples[0].Input
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(in)
	}
}
