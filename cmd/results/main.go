// Command results renders RESULTS.md — the paper-vs-reproduction
// comparison — from the BENCH_paper.json written by
// BenchmarkPaperSystems. Regenerate both with:
//
//	go test -run '^$' -bench BenchmarkPaperSystems -benchtime 1x .
//	go run ./cmd/results
//
// A filtered benchmark run (e.g. CI's -bench 'PaperSystems/case57$')
// produces a JSON with a subset of systems; results renders whatever
// rows are present, so the committed RESULTS.md should come from a
// full sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
)

type systemRow struct {
	Buses            int     `json:"buses"`
	Gens             int     `json:"gens"`
	Branches         int     `json:"branches"`
	RatedBranches    int     `json:"rated_branches"`
	NEq              int     `json:"neq"`
	NIq              int     `json:"niq"`
	Draws            int     `json:"draws"`
	Epochs           int     `json:"epochs"`
	Problems         int     `json:"problems"`
	ColdIters        float64 `json:"cold_iters"`
	WarmIters        float64 `json:"warm_iters"`
	ColdMsPerProblem float64 `json:"cold_ms_per_problem"`
	WarmMsPerProblem float64 `json:"warm_ms_per_problem"`
	SuccessRate      float64 `json:"success_rate"`
	Speedup          float64 `json:"speedup"`
	OptimalityGap    float64 `json:"optimality_gap"`
}

type trajSystemRow struct {
	Buses                int     `json:"buses"`
	Draws                int     `json:"draws"`
	Epochs               int     `json:"epochs"`
	ColdMsPerStep        float64 `json:"cold_ms_per_step"`
	ChainMsPerStep       float64 `json:"chain_ms_per_step"`
	PredictMsPerStep     float64 `json:"predict_ms_per_step"`
	ChainSpeedupVsCold   float64 `json:"chain_speedup_vs_cold"`
	PredictSpeedupVsCold float64 `json:"predict_speedup_vs_cold"`
	Winner               string  `json:"winner"`
	ChainWarmHits        int     `json:"chain_warm_hits"`
	PredictWarmHits      int     `json:"predict_warm_hits"`
	Converged            int     `json:"converged"`
}

type trajReport struct {
	Benchmark string  `json:"benchmark"`
	Steps     int     `json:"steps"`
	RampFrac  float64 `json:"ramp_frac"`
	Replay    struct {
		System             string `json:"system"`
		Steps              int    `json:"steps"`
		ServedBitIdentical bool   `json:"served_bit_identical"`
	} `json:"replay"`
	Systems map[string]trajSystemRow `json:"systems"`
}

type kernelRow struct {
	KKTN        int     `json:"kkt_n"`
	KKTNnz      int     `json:"kkt_nnz"`
	LUNnz       int     `json:"lu_nnz"`
	ScalarNs    float64 `json:"scalar_ns"`
	BlockedNs   float64 `json:"blocked_ns"`
	Speedup     float64 `json:"speedup"`
	Supernodes  int     `json:"supernodes"`
	PanelCols   int     `json:"panel_cols"`
	MaxWidth    int     `json:"max_width"`
	PanelFrac   float64 `json:"panel_frac"`
	AutoBlocked bool    `json:"auto_blocked"`
}

type fillRow struct {
	KKTN   int `json:"kkt_n"`
	KKTNnz int `json:"kkt_nnz"`
	RCM    int `json:"lu_nnz_rcm"`
	AMD    int `json:"lu_nnz_amd"`
}

type kktReport struct {
	Case                     string  `json:"case"`
	KKTN                     int     `json:"kkt_n"`
	SpeedupRefactorVsAnalyze float64 `json:"speedup_refactor_vs_analyze"`
	ProductionFill           struct {
		Systems map[string]fillRow `json:"systems"`
	} `json:"production_fill"`
	BlockedKernel struct {
		Ordering string               `json:"ordering"`
		Systems  map[string]kernelRow `json:"systems"`
	} `json:"blocked_kernel"`
}

type lifecycleReport struct {
	Benchmark string `json:"benchmark"`
	System    string `json:"system"`
	Drift     struct {
		Window   int `json:"window"`
		Baseline int `json:"baseline"`
		FiredAt  int `json:"fired_at"`
	} `json:"drift"`
	Canary struct {
		Frac     float64 `json:"frac"`
		Window   int     `json:"window"`
		Decision string  `json:"decision"`
	} `json:"canary"`
	CapturedPairs              int64   `json:"captured_pairs"`
	RetrainMs                  float64 `json:"retrain_ms"`
	Candidate                  string  `json:"candidate"`
	PreDriftWarmItersMean      float64 `json:"pre_drift_warm_iters_mean"`
	PreDriftWarmHits           int     `json:"pre_drift_warm_hits"`
	PostPromotionWarmItersMean float64 `json:"post_promotion_warm_iters_mean"`
	PostPromotionWarmHits      int     `json:"post_promotion_warm_hits"`
	Probes                     int     `json:"probes"`
}

type report struct {
	Benchmark  string `json:"benchmark"`
	ProducedBy string `json:"produced_by"`
	PaperClaim struct {
		AvgSpeedup float64 `json:"avg_speedup"`
		Source     string  `json:"source"`
	} `json:"paper_claim"`
	MeasuredAvgSpeedup float64              `json:"measured_avg_speedup"`
	Systems            map[string]systemRow `json:"systems"`
}

// codeSize is the tracked line-count history rendered into RESULTS.md.
var codeSize = []struct {
	at, why               string
	all, warmPath, kernel int
}{
	{at: "PR 11", all: 19677, warmPath: 6252, kernel: 5123, why: "baseline (first tracked commit)"},
	{at: "PR 14", all: 18977, warmPath: 5900, kernel: 5073, why: "one warm-start pipeline: one predictor seam, replica pool, row-identity projection and warm→cold routine; labelled metric counters; `internal/dcopf`, `internal/ed` deleted"},
	{at: "PR 17", all: 17466, warmPath: 5887, kernel: 3604, why: "one serial KKT path: intra-solve parallel tier deleted (`etree.go`, `parfor.go`, `pool.go`, `parallel.go`, the stamped assembler protocol, sharded KKT assembly, the batch thread budget, the solver-thread flag and its seven sibling knobs; CHANGES.md names them)"},
	{at: "PR 19", all: 17094, warmPath: 5824, kernel: 3331, why: "one KKT analysis cache: `sparse.OrderingCache` and the plain/shaped/child modes of `SymbolicCache` merged into one per-topology cache + per-solve handle; `mips.Options.Orderings`/`NoKKTReuse`, `pgsim -kkt-reuse` and the from-scratch factorization path deleted; allocating `Refactor`/`RefactorBlocked`/`Factorize`/`SolveLU`/`NewFactors` forms, `(*OPF).Rebind` and seven unreferenced declarations removed"},
	{at: "PR 20", all: 16949, warmPath: 5679, kernel: 3331, why: "one shared model per system: `(*mtl.Model).Predict` made safe for concurrent use (immutable float32 copy behind one atomic pointer per layer); the predictor pool type in `internal/opf`, the model's replica-pool constructor and pool resolver in `internal/mtl`, serve's replica sets, sweep borrow logic, `replicaCount` and the trajectory \"no idle replica\" 503, the predictor slices of `scopf.Engine`/`horizon.Runner`, `scopf`'s `modelLayout`/`predict` and the slice form of `scale.RunParallel` deleted (CHANGES.md names them)"},
	{at: "PR 21", all: 17256, warmPath: 5861, kernel: 3446, why: "one KKT analysis per system for the whole branch-outage space (a performance change, so the count goes up): `sparse.SymbolicCache.Derive` + the sub-pattern embedding in `CacheHandle.FactorizeInto` (+115), `opf.RebindOutage` deriving its cache and the root-first rule in `Solve`, one prediction per load draw and per-class KKT counters in `scopf`, `scopf.MatchNaive` + `Drift` replacing four copies of the bit-identity guard, the first solve on a KKT cache serialised behind a `sync.Once`; `screen_n1_mid` `latency_ms_mid` 105.0 → 68.3 ms in exchange (PERFORMANCE.md)"},
	{at: "PR 22", all: 17100, warmPath: 5840, kernel: 3338, why: "one KKT ordering, AMD, chosen on the matrix MIPS factors: the fill-probing fourth ordering with its resolver and surrogate probe, the per-size default with its 48-bus threshold in `internal/opf`, the `-ordering` flags of `pgsim`/`scopf` and the ordering-name parser deleted (CHANGES.md names them); a `SymbolicCache` publishes one analysis through one atomic pointer — the four-entry MRU, its cap, the bump/evict logic and the handle's pin list gone, a second pattern stays private to its handle; `cmd/results` renders the production fill table and sorts its four tables with one helper"},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("results: ")
	in := flag.String("in", "BENCH_paper.json", "benchmark report to render")
	traj := flag.String("trajectory", "BENCH_trajectory.json", "trajectory benchmark report to append (section skipped when the file is absent)")
	kkt := flag.String("kkt", "BENCH_kkt.json", "kernel benchmark report to append (section skipped when the file is absent)")
	lc := flag.String("lifecycle", "BENCH_lifecycle.json", "lifecycle benchmark report to append (section skipped when the file is absent)")
	out := flag.String("out", "RESULTS.md", "markdown file to write")
	flag.Parse()

	buf, err := os.ReadFile(*in)
	if err != nil {
		log.Fatalf("%v (run the benchmark first: go test -run '^$' -bench BenchmarkPaperSystems -benchtime 1x .)", err)
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		log.Fatalf("parsing %s: %v", *in, err)
	}
	if len(r.Systems) == 0 {
		log.Fatalf("%s has no system rows", *in)
	}
	names := bySize(r.Systems, func(s systemRow) int { return s.Buses })

	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	w("# RESULTS — warm-start speedup on the paper's systems")
	w("")
	w("Reproduction of the headline claim of conf_sc_DongXKL20 (\"an average")
	w("2.60× speedup over the original MIPS solver on standard IEEE test")
	w("systems (up to 300 buses) without losing solution optimality\") on the")
	w("embedded fleet. Every row is one full offline+online pipeline run —")
	w("±10 %% load-draw dataset generation, Smart-PGSim training, then each")
	w("held-out problem solved cold (MIPS baseline) and through the")
	w("predict→warm-solve→fallback pipeline. Numbers regenerate with:")
	w("")
	w("```sh")
	w("go test -run '^$' -bench BenchmarkPaperSystems -benchtime 1x .")
	w("go run ./cmd/results")
	w("```")
	w("")
	w("This file was rendered from `%s` (benchmark %q).", *in, r.Benchmark)
	w("")
	w("## Speedup vs the paper")
	w("")
	w("| system | buses | gens | branches (rated) | #λ | #µ | problems | cold iters | warm iters | success rate | speedup | optimality gap |")
	w("|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, n := range names {
		s := r.Systems[n]
		w("| %s | %d | %d | %d (%d) | %d | %d | %d | %.1f | %.1f | %.0f%% | **%.2f×** | %.1e |",
			n, s.Buses, s.Gens, s.Branches, s.RatedBranches, s.NEq, s.NIq,
			s.Problems, s.ColdIters, s.WarmIters, s.SuccessRate*100, s.Speedup, s.OptimalityGap)
	}
	w("")
	w("**Measured average: %.2f× (paper claims %.2f× average).** The", r.MeasuredAvgSpeedup, r.PaperClaim.AvgSpeedup)
	w("optimality-gap column is the mean relative cost difference between the")
	w("warm-started and cold solutions — the paper's \"without losing solution")
	w("optimality\" check; failed warm starts fall back to a cold restart, so")
	w("the accepted solution is always a converged optimum.")
	w("")
	w("The speedup grows with system size — exactly the paper's regime: the")
	w("cold interior-point iteration count climbs with the network while the")
	w("warm-started count stays flat, and each saved iteration is worth more")
	w("at scale. The flip side is visible on case30: a small system with the")
	w("IEEE file's tight flow limits solves cold in ~14 ms, and predicted")
	w("µ/Z values sitting near those active limits disturb the interior-")
	w("point centering more than they help, so the warm path loses ground")
	w("there (more data does not fix it; it is a property of the regime,")
	w("not of the corpus).")
	w("")
	w("Caveats when comparing to the paper: the offline phase here is the")
	w("bench profile (per-system draws/epochs below, hundreds of times")
	w("smaller than the paper's 10,000-sample corpus), the embedded")
	w("case57/118/300 carry derived branch ratings where the IEEE files have")
	w("none (see internal/grid/cases.go), and case300 is the frozen")
	w("Table II-scale reconstruction, not the original case file. A larger")
	w("corpus (core.TrainingDefaults or the EXPERIMENTS.md full-sweep")
	w("recipe) pushes the success rate — and with it the speedup — up.")
	w("")
	w("## Per-system solve cost and offline profile")
	w("")
	w("| system | cold ms/problem | warm ms/problem | draws | epochs |")
	w("|---|---|---|---|---|")
	for _, n := range names {
		s := r.Systems[n]
		w("| %s | %.1f | %.1f | %d | %d |", n, s.ColdMsPerProblem, s.WarmMsPerProblem, s.Draws, s.Epochs)
	}
	w("")
	if kbuf, err := os.ReadFile(*kkt); err == nil {
		renderKernel(w, *kkt, kbuf)
	} else {
		log.Printf("note: %s absent, kernel section skipped (run the BenchmarkRefactorBlocked recipe in PERFORMANCE.md)", *kkt)
	}

	if tbuf, err := os.ReadFile(*traj); err == nil {
		renderTrajectory(w, *traj, tbuf)
	}

	if lbuf, err := os.ReadFile(*lc); err == nil {
		renderLifecycle(w, *lc, lbuf)
	}

	w("## Code size")
	w("")
	w("Non-test, non-data Go lines, tracked because the same behaviour from")
	w("less code is a goal in its own right (ROADMAP item 6). A PR that moves")
	w("the number adds its row to `codeSize` in `cmd/results`; the counts are")
	w("")
	w("```sh")
	w("find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './internal/grid/cases*.go' | xargs cat | wc -l")
	w("ls internal/{opf,core,scopf,horizon,serve}/*.go | grep -v _test | xargs cat | wc -l")
	w("ls internal/{sparse,mips,batch}/*.go | grep -v _test | xargs cat | wc -l")
	w("```")
	w("")
	w("| at | all packages | opf + core + scopf + horizon + serve | sparse + mips + batch | what moved it |")
	w("|---|---|---|---|---|")
	for _, c := range codeSize {
		w("| %s | %d | %d | %d | %s |", c.at, c.all, c.warmPath, c.kernel, c.why)
	}
	w("")

	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d systems, avg speedup %.2fx vs paper %.2fx)",
		*out, len(names), r.MeasuredAvgSpeedup, r.PaperClaim.AvgSpeedup)
}

// bySize returns the keys of a per-system table ordered by system size.
func bySize[T any](m map[string]T, size func(T) int) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return size(m[names[i]]) < size(m[names[j]]) })
	return names
}

// renderKernel appends the KKT-fill and numeric-kernel sections from
// BENCH_kkt.json (production fill and symbolic reuse written by
// BenchmarkKKTFactor/BenchmarkMIPSSolve, blocked-kernel rows by
// BenchmarkRefactorBlocked). Any part may be absent — a filtered bench
// run regenerates only its own section — so each table renders only
// when its rows exist.
func renderKernel(w func(string, ...any), path string, buf []byte) {
	var k kktReport
	if err := json.Unmarshal(buf, &k); err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	if fill := k.ProductionFill.Systems; len(fill) > 0 {
		w("## KKT fill by ordering (why every system is analyzed under AMD)")
		w("")
		w("L+U nonzeros of the matrix MIPS factors — the reduced KKT system,")
		w("pivot-shaped, as a one-iteration cold solve analyzes it under each")
		w("ordering (`production_fill` in `%s`). `opf.Prepare` uses AMD on", path)
		w("every system; `TestKKTOrderingFill` holds it to 1.05× RCM's fill")
		w("(DESIGN.md §9).")
		w("")
		w("| system | KKT n | nnz(KKT) | L+U rcm | L+U amd | amd / rcm |")
		w("|---|---|---|---|---|---|")
		for _, n := range bySize(fill, func(f fillRow) int { return f.KKTN }) {
			f := fill[n]
			w("| %s | %d | %d | %d | %d | %.2f |", n, f.KKTN, f.KKTNnz, f.RCM, f.AMD, float64(f.AMD)/float64(f.RCM))
		}
		w("")
	}
	if k.Case == "" && len(k.BlockedKernel.Systems) == 0 {
		log.Printf("note: %s has no kernel sections, skipped", path)
		return
	}
	w("## Numeric kernel: symbolic reuse and the blocked LU")
	w("")
	w("Self-timed sections of `%s` — the factorization layer under every", path)
	w("MIPS iteration above. Regenerate with the recipes in PERFORMANCE.md.")
	w("")
	if k.Case != "" {
		w("Reusing the frozen symbolic analysis (%s KKT, n=%d) makes a", k.Case, k.KKTN)
		w("refactorization %.1f× faster than a fresh analyze+factor.", k.SpeedupRefactorVsAnalyze)
		w("")
	}
	if len(k.BlockedKernel.Systems) > 0 {
		w("The blocked panel kernel batches supernodal columns of the %s-", k.BlockedKernel.Ordering)
		w("ordered KKT factor so the hot update loop runs over dense panels")
		w("(DESIGN.md §11). Equivalence with the scalar kernel (identical")
		w("fill, solves agreeing to 1e-9) and zero warm-path allocations are")
		w("pinned with `b.Fatal` inside the benchmark itself:")
		w("")
		w("| system | KKT n | nnz(LU) | scalar ms | blocked ms | speedup | supernodes | panel cols | panel flops | auto-selected |")
		w("|---|---|---|---|---|---|---|---|---|---|")
		for _, n := range bySize(k.BlockedKernel.Systems, func(s kernelRow) int { return s.KKTN }) {
			s := k.BlockedKernel.Systems[n]
			w("| %s | %d | %d | %.2f | %.2f | **%.2f×** | %d | %d | %.0f%% | %v |",
				n, s.KKTN, s.LUNnz, s.ScalarNs/1e6, s.BlockedNs/1e6, s.Speedup,
				s.Supernodes, s.PanelCols, 100*s.PanelFrac, s.AutoBlocked)
		}
		w("")
	}
}

// renderTrajectory appends the multi-period crossover section from
// BENCH_trajectory.json (written by BenchmarkTrajectory).
func renderTrajectory(w func(string, ...any), path string, buf []byte) {
	var t trajReport
	if err := json.Unmarshal(buf, &t); err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	if len(t.Systems) == 0 {
		log.Fatalf("%s has no system rows", path)
	}
	names := bySize(t.Systems, func(s trajSystemRow) int { return s.Buses })

	w("## Multi-period trajectories: chain vs predict crossover")
	w("")
	w("One %d-step synthetic load trajectory per system (ramp limits at", t.Steps)
	w("%.0f %% of each unit's dispatch range per step), solved cold, with", 100*t.RampFrac)
	w("warm-start chaining (each step starts from the previous step's full")
	w("primal/dual solution) and with per-step model prediction — the")
	w("multi-period extension of the paper's warm-start idea. Rendered from")
	w("`%s` (benchmark %q); regenerate with the BenchmarkTrajectory", path, t.Benchmark)
	w("recipe in EXPERIMENTS.md.")
	w("")
	w("| system | buses | cold ms/step | chain ms/step | predict ms/step | chain speedup | predict speedup | winner | chained warm hits |")
	w("|---|---|---|---|---|---|---|---|---|")
	for _, n := range names {
		s := t.Systems[n]
		w("| %s | %d | %.1f | %.1f | %.1f | **%.2f×** | %.2f× | %s | %d/%d |",
			n, s.Buses, s.ColdMsPerStep, s.ChainMsPerStep, s.PredictMsPerStep,
			s.ChainSpeedupVsCold, s.PredictSpeedupVsCold, s.Winner, s.ChainWarmHits, t.Steps)
	}
	w("")
	if t.Replay.ServedBitIdentical {
		w("The served stream is pinned: the same %s trajectory replayed", t.Replay.System)
		w("through `POST /v1/trajectory` is bit-identical to the offline runner")
		w("(every step's convergence flags, iteration count, cost and dispatch).")
		w("")
	}
}

// renderLifecycle appends the online-lifecycle section from
// BENCH_lifecycle.json (written by BenchmarkLifecycle).
func renderLifecycle(w func(string, ...any), path string, buf []byte) {
	var l lifecycleReport
	if err := json.Unmarshal(buf, &l); err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	if l.System == "" {
		log.Printf("note: %s has no lifecycle run, skipped", path)
		return
	}
	w("## Online model lifecycle: drift-triggered retrain and canary")
	w("")
	w("One closed lifecycle loop on %s — served traffic captured, a regime", l.System)
	w("change fired the windowed drift detector (window %d, baseline %d", l.Drift.Window, l.Drift.Baseline)
	w("windows) on observation %d, the candidate retrained on the captured", l.Drift.FiredAt)
	w("(instance, solution) pairs through the offline training path, and a")
	w("canary window (%.0f %% traffic, %d observations per arm) gated the", 100*l.Canary.Frac, l.Canary.Window)
	w("hot swap. Rendered from `%s`; regenerate with the BenchmarkLifecycle", path)
	w("recipe in EXPERIMENTS.md.")
	w("")
	w("| captured pairs | retrain ms | canary decision | warm iters (pre-drift) | warm iters (post-promotion) | probe hits |")
	w("|---|---|---|---|---|---|")
	w("| %d | %.0f | **%s** | %.1f | %.1f | %d/%d |",
		l.CapturedPairs, l.RetrainMs, l.Canary.Decision,
		l.PreDriftWarmItersMean, l.PostPromotionWarmItersMean,
		l.PostPromotionWarmHits, l.Probes)
	w("")
	w("The promoted candidate (`%s`) is content-hash versioned in the model", l.Candidate)
	w("registry; the benchmark fails (`b.Fatal`) if the canary promotes a")
	w("regressing candidate or the promoted model misses a warm probe.")
	w("")
}
