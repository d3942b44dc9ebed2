// Command results renders RESULTS.md — the paper-vs-reproduction
// comparison — from the BENCH_paper.json written by internal/core's
// BenchmarkPaperSystems. Regenerate both with:
//
//	go test -run '^$' -bench PaperSystems -benchtime 1x ./internal/core
//	go run ./cmd/results
//
// A filtered benchmark run (e.g. CI's -bench 'PaperSystems/case57$')
// measures a subset of systems and keeps the other rows on disk, so the
// committed RESULTS.md should come from a full sweep.
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
	Benchmark string                   `json:"benchmark"`
	Steps     int                      `json:"steps"`
	RampFrac  float64                  `json:"ramp_frac"`
	Systems   map[string]trajSystemRow `json:"systems"`
}

type kernelRow struct {
	KKTN       int     `json:"kkt_n"`
	LUNnz      int     `json:"lu_nnz"`
	LDLNnz     int     `json:"ldl_nnz"`
	LUNs       float64 `json:"lu_ns"`
	LDLNs      float64 `json:"ldl_ns"`
	Speedup    float64 `json:"speedup"`
	Supernodes int     `json:"supernodes"`
	PanelCols  int     `json:"panel_cols"`
	Updates    int     `json:"updates"`
}

type fillRow struct {
	KKTN     int `json:"kkt_n"`
	KKTNnz   int `json:"kkt_nnz"`
	RCM      int `json:"lu_nnz_rcm"`
	MD       int `json:"lu_nnz_mindegree"`
	LDLMD    int `json:"ldl_nnz_mindegree"`
	FlopsRCM int `json:"flops_rcm"`
	FlopsMD  int `json:"flops_mindegree"`
}

type kktReport struct {
	Case                     string  `json:"case"`
	KKTN                     int     `json:"kkt_n"`
	SpeedupRefactorVsAnalyze float64 `json:"speedup_refactor_vs_analyze"`
	ProductionFill           struct {
		Systems map[string]fillRow `json:"systems"`
	} `json:"production_fill"`
	LDLKernel struct {
		Systems map[string]kernelRow `json:"systems"`
	} `json:"ldl_kernel"`
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
	{at: "after 2e0963a", all: 16978, warmPath: 5785, kernel: 3279, why: "every branch outage has the intact KKT pattern: `grid.YMatrices.DropBranch` keeps the outaged Ybus entries as explicit zeros, so the per-class entry map, the per-factorization scatter buffer, `SymbolicCache.embed` and `(*OPF).Solve`'s root-first warming solve with its `sync.Once` and root pointer are deleted — the one analysis is made under the root cache's lock; the unused `(*OPF).problem` deleted; `mips.Options` `Xi`/`Sigma`/`Z0`/`Gamma0` and `mtl.TrainConfig` `MainWeight`/`AuxWeight`/`LogEvery` made constants"},
	{at: "after a93fd24", all: 16977, warmPath: 5783, kernel: 3279, why: "every contingency is a value edit on the intact problem: an outaged rated branch keeps its flow rows (zero admittances), a dropped unit its Pg/Qg columns (weight 0 on cost and injection), so every outage class has the intact layout and `Derive()`s its KKT cache — the layout surgery of `RebindOutage`/`RebindGenOutage`, `Projection`'s x/iq index maps (`present`, `unlessIdentity`, `gather`) and scopf's per-class `Layout.Fits` routing and projection field deleted; the warm start is fitted by the target instance (`opf.AdaptStart`, reading the decoupled rows and slacks recorded once per derivation), `Projection` maps only `RebindRamp`'s newly finite bound rows"},
	{at: "after 1c4db34", all: 17046, warmPath: 5799, kernel: 3327, why: "a third failure verdict (a performance change, so the count goes up): `mips.ErrStalled` ends a solve whose best primal feasibility has not halved in 65 iterations, with its window of bests on the `Stepper` (+48 in `mips`, most of it the documented calibration); `scopf.Summary` splits its errors by verdict, `pgsimd_screen_stalled_total` and `cmd/scopf`'s error split read it; `screen_n1_mid`'s check pass runs 7,661 → 4,893 iterations (PERFORMANCE.md)"},
	{at: "after 1e05057", all: 16623, warmPath: 5427, kernel: 3327, why: "screening takes every warm start and screens every pair it is given: the learned warm/cold dispatch policy (`scopf/policy.go`, `Engine.Policy`, `Outcome.ColdByPolicy`, `Summary.PolicyCold`, `cmd/scopf -policy`, `/v1/screen`'s `policy` field and `policy_cold`/`cold_by_policy`, `pgsimd_screen_policy_cold_total`) and the severity-ranked top-K N-2 screen (`scopf/n2.go` but `AllPairs`, `cmd/scopf`'s separate N-2 stage; `-n2` is a bool) deleted — neither changed a decision on any measured fixture (PERFORMANCE.md, \"Screening extras that never fired\")"},
	{at: "after c4a31ad", all: 16676, warmPath: 5536, kernel: 3265, why: "the Newton system compiled once per grid (a performance change; the count goes up by 53): `sparse.Assembler` and its verify/recompile protocol (−167) replaced by `sparse.CompileSlots` and slot-map stamps — `opf`'s shared `evalProgram` records each evaluator's entry order once (+90 in `eval.go`), the `mips` arena keys its inequality and KKT slot maps on input patterns (+130 in `arena.go`, −25 in `mips.go`); `scopf.Outcome.Spent` and `error_iterations` (+13); `mtl.Model.Load` decodes in place (+5); `serve_cold_mid` `latency_ms_mid` 21.00 → 14.00 ms (PERFORMANCE.md)"},
	{at: "after 12caeba", all: 16616, warmPath: 5535, kernel: 3205, why: "one supernodal LDLᵀ for every KKT system (a performance change; the count goes down by 60): `internal/sparse/ldl.go` (+502: `AnalyzeLDL`'s elimination tree, column patterns, supernodes and update ops, and the one `FactorInto` kernel with its `panelUpdate`) replaces `blocked.go` (−546: the blocked LU schedule, kernel, auto-selector and `PanelStats`), the pivot surrogate in `order.go`, the shaped/value-pivoted paths of `symbolic.go` and the unused `AnalyzePerm`; the scalar LU refactorization moved into `lu.go` for the Newton power flow"},
	{at: "after f0e2663", all: 16673, warmPath: 5535, kernel: 3205, why: "inference multiplies only the nonzero activations (a performance change; the count goes up by 57): `nn` keeps each layer's float32 weights column-major, built by a tiled transpose, and `infer32` adds the weight columns of nonzero inputs eight per pass, replacing the row-major four-output kernel (+51 in `infer.go`); `mtl.Model.Predict` runs through `predict`, which takes each network's forward pass so a test can substitute the row-major reference (+5); `serve_warm_large` `latency_ms_mid` 12.97 → 9.92 ms (PERFORMANCE.md)"},
	{at: "after 8e71d89", all: 16810, warmPath: 5535, kernel: 3205, why: "a served model boots in one streamed pass (a performance change; the count goes up by 137): `nn/serialize.go`'s gob `SaveParams`/`LoadParams` became the raw tensor-stream codec every model file uses — magic/version header, every tensor's length, raw little-endian float64 through one 32 KiB buffer, three named errors (+117); `mtl` builds `Load`'s and `Clone`'s networks without an init draw and writes the normalizer as ten tensors of the stream, its gob `snapshot` type deleted (+22); `nn.Param.Grad` allocated by training's first use (+12); `examples/transfer`'s save/load clone replaced by `Clone` (−15); `serve_warm_large` `rss_peak_mb` 478.3 → 192.4 MiB (PERFORMANCE.md)"},
	{at: "after d00f7c1", all: 16645, warmPath: 5459, kernel: 3205, why: "one layout per grid: `RebindRamp` only tightens bounds that are already finite and rejects a finite limit on an infinite side, so its NIq recount, the ramp-row start projection of `internal/opf` (its type, constructor, apply and row map and the seed constant; −77) and the trajectory stepper's previous-instance field and two projection calls are deleted; `horizon.Runner` rejects a model laid out for another grid (+4); `examples/scaling` and `examples/sensitivity`, their CLIs with fixed flags, deleted (−90)"},
	{at: "after 8cc4a8f", all: 16781, warmPath: 5479, kernel: 3313, why: "the stepper corrects the KKT inertia while the barrier is large (a performance change; the count goes up by 136): `mips.Stepper.factorKKT` is the one routine that factors and regularizes, with the δ_w ladder in `correctInertia`, its documented constants and the reg-slot save/shift in the arena (+94 in `mips`), `sparse.LDLFactors.NegativePivots` (+14), the correction count through `opf.Result`, `core.WarmOutcome` and `pgsimd_kkt_inertia_corrections_total` (+20), RESULTS.md's note on the MIPS-faithful cold column and this row (+8); `serve_cold_mid` `latency_ms_mid` 9.12 → 8.01 ms (PERFORMANCE.md)"},
	{at: "after 287227f", all: 17062, warmPath: 5488, kernel: 3583, why: "the LDLᵀ factors by destination supernode (a performance change; the count goes up by 281): in `internal/sparse/ldl.go` (+270) `AnalyzeLDL` compiles one update program per supernode, with relative indices and block gather offsets, in place of the per-column op list, `maxPanel` and the n-length accumulator, and the kernel gathers a packed block, applies one- and two-column sources directly and wider ones through the two-target `panelUpdate`, finishes its own columns in pairs and tests collapse against one bound per factorization; `LDLSymbolic.Updates`/`Flops`; the column kernel moved to a test-only reference; `scopf.Outcome.InertiaCorrections` counted on `/v1/screen` (+9); an `updates` column in RESULTS.md's kernel table (+2); `serve_cold_mid` `latency_ms_mid` 8.58 → 7.26 ms (PERFORMANCE.md)"},
	{at: "after c721c56", all: 16738, warmPath: 5489, kernel: 3583, why: "the modelled Figure 9 deleted: `internal/scale`, which extrapolated a 128-GPU cluster from one CPU inference time and hand-set constants (−164), and `cmd/scaling` (−67), with the root benchmark that printed its curves; `cmd/scopf`'s `-naive` and `-no-projection` switches and the `path` field of its `-json` report (−25; `scopf.ScreenNaive` and `Engine.NoProjection` stay as the tests' and `BenchmarkScreen`'s reference); `nn.SGD`, `la.Concat`, `Vector.Norm1` and `Vector.Norm2`, which only their own tests called (−74); RESULTS.md's note that Fig 9 is not reproduced and this row (+5)"},
	{at: "after 202e913", all: 16871, warmPath: 5492, kernel: 3607, why: "a served model is resident once (a performance change; the count goes up by 133): `mtl.Model.Release` and `nn.Sequential.Release` drop every layer's float64 weights once its float32 copy is built, and `nn.ErrReleased` names what then fails (`SaveParams`, `Clone`, `Forward`, a post-mutation rebuild); `mtl.Load` hashes the snapshot as it streams and `Fingerprint` answers with it until a weight changes; parameter counts come from layer shapes (`Sequential.NumParams`, `Model.NumParams` replace `nn.NumParams`) — `nn` +50, `mtl` +55, most of it doc comments; the KKT `CacheHandle` remembers the pattern arrays it last factored (`sparse` +24); `serve_warm_large` `rss_peak_mb` 192.5 → 100.5 MiB (PERFORMANCE.md)"},
	{at: "after e52dd13", all: 16832, warmPath: 5493, kernel: 3562, why: "every KKT system is ordered by exact minimum degree (a performance change; the count goes down by 39): `sparse.amdOrder`, the quotient-graph approximate minimum degree (−103), is replaced by `minDegreeOrder` (+54), one bitset row per variable with the fill clique formed by row ORs and degrees by popcount, and `OrderAMD` is renamed `OrderMinDegree` (`String` \"mindegree\"); case118's factorization does 52,471 flops instead of 126,922, and `screen_n1_mid` throughput rose ≈28 % (PERFORMANCE.md)"},
	{at: "after dfb491f", all: 16952, warmPath: 5493, kernel: 3562, why: "eight weight columns per SSE2 pass (a performance change; the count goes up by 120, and from here on it counts `.s` files): `nn`'s float32 column loops became one amd64 assembly routine, `addcols_amd64.s` (+86, four outputs per `MULPS`/`ADDPS` step, a scalar tail), declared in `addcols_amd64.go` (+11), with the former Go loop kept for every other architecture in `addcols_other.go` (+33); `infer.go` −13 (the loops −26, the kernel's doc comment +13); this table's note (+3); a case300 prediction takes ≈0.99 ms instead of ≈1.85 ms with every bit unchanged (PERFORMANCE.md)"},
	{at: "after 67b9708", all: 16175, warmPath: 5478, kernel: 3035, why: "one sparse factorization (−777): the Gilbert–Peierls LU with its frozen-pivot refactor (`sparse/lu.go`, −421), the Newton power flow that was its one caller (package `pf`, −206), reverse Cuthill–McKee, `symAdjacency`, the natural ordering and `permFor` (`order.go` −109), `(*OPF).SetOrdering` (−15), `SymbolicCache`'s ordering field and `Ordering` method; `AnalyzeLDL` and `NewSymbolicCache` take no ordering, and `sparse.Ordering` keeps one value, `OrderMinDegree`, now the zero value; `casegen` certifies a synthesized system with one cold solve of its unrated OPF and stores the optimum (−13), so `internal/grid/gen` drops its own re-anchor (−22); `sparse`'s package comment and `grid.MakeSbus`'s say what is left"},
	{at: "after 5d4c336", all: 16178, warmPath: 5478, kernel: 3158, why: "the KKT stamped once per symmetric pair, straight into the LDLᵀ's packed blocks (a performance change; the count goes up by 3): `internal/grid/gen`, which regenerated nothing, is deleted (−121); in the kernel (+123) `LDLSymbolic.Slots`, `FactorPacked`, the collapse scan's row slots and the CSC loader replace the symmetrizing gather map (`ldl.go` +41), `CacheHandle.Analysis`/`FactorizePacked` split analysis from factorization (`symbolic.go` +20), the mips arena compiles the lower stamp against the cache's analysis with no Jgᵀ map (`arena.go` +41) and `Stepper.Factor`/`KKT` serve the inertia loop and the tests (`mips.go` +19), `sparse`'s package comment (+2); `serve_cold_mid` `latency_ms_mid` 8.23 → 7.02 ms in exchange (PERFORMANCE.md)"},
	{at: "after 0661057", all: 16156, warmPath: 5478, kernel: 3135, why: "one regularization ladder (−22): `mips.Stepper.factorKKT` ends a solve with `ErrNumeric` on a collapsed KKT column instead of retrying the iterate with an escalating r·I on the (1,1) block, so the field that held r, `Step`'s burned-iteration branch and `kktSystem.stamp`'s `reg` argument with its primal-diagonal loop are deleted, and the comments that described the ladder say what is left; no retried solve had converged in the tier-1 tests or the benchmark workloads (PERFORMANCE.md \"One regularization ladder\")"},
	{at: "after 567e187", all: 16101, warmPath: 5488, kernel: 3073, why: "one worker-pool path (−55): `batch.Run` and `Map` take `(n, workers, fn(i))` and run one loop for every worker count — indices from a shared atomic counter, the calling goroutine one of the workers — in place of the inline path and the channel-fed pool; the per-task context with its seeded `rand.Rand` (read by no production caller), the options struct with its seed and progress callback, the exported seed mix and the worker-count environment variable are deleted, `dataset`'s progress callback with them, and the splitmix64 seed mix moved into `horizon` as the unexported step seed of `Synthetic` (+11); the `kktStaticReg` and `boostPivotRel` comments say the static pivot boost is the dual regularization actually applied (+8)"},
	{at: "after 8c6cc2b", all: 15302, warmPath: 5307, kernel: 2846, why: "production code is what the programs link (−799 with this row; the set of linked symbols of the nine commands, three examples and the `bench/` harness is unchanged): of the `internal/` functions no program links, 282 lines are deleted outright — callers switch to the linked API (`RunBatch` for `horizon.Runner.Run`, `SolveInto` for `LDLFactors.Solve`, `Equality`/`Inequality` for `opf.Constraints`, `dataset.InputVector` of the `Perturb`'d case for `core.InstanceInput`, `ConnectedWithout(c, nil)` for `grid.Connected`) or the function only tested itself (`la`'s `Min`/`Max`/`Sum`/`MaxAbs`/`T`/`MulVecT`, `sparse`'s CSC scaling, complex transpose and parts, `serve.Server.Lifecycle`, …) — and 503 lines move into the `_test.go` files of the tests that use them (the reference Hessian with `grid`'s second derivatives into `internal/opf`, `sparse`'s dense and element views and `FactorizeInto`, serve's predictor seam, `WriteMatpower`, the dense `Eye`/`Mul`/`MulVec`/`Det` helpers, `nn.MSE`, `mtl.DefaultConfig`, Table II's printer into `bench_test.go`); the 15 others are imports, the Table II row type and comments; what stays unlinked is on `TestProductionAPIHasCallers`'s allowlist or named in the verify skill's linker audit"},
	{at: "after b53b441", all: 14986, warmPath: 5304, kernel: 2846, why: "every named system is data (−316 counted lines; the 124 lines of `internal/grid/cases39.go` are data and uncounted): case39, the one system still synthesized when it loaded, is committed in case300's table format (`reflect.DeepEqual` to the synthesis it replaces) and `internal/casegen` (360 lines: the preferential-attachment generator, its load-level retry ladder and certifying solve, five `Spec` profiles and the concurrent `Systems` fan-out) is deleted; `grid.ByName` and `grid.Names` (+43, one table) serve all nine systems, `core.LoadSystems` is a plain loop over `LoadSystem`"},
	{at: "after 36b5d61", all: 14797, warmPath: 5135, kernel: 2846, why: "one screener (−189 counted lines with this row: 69 deleted, 120 moved into test files, which is no reduction): `scopf.Engine.NoProjection`, `Engine.Base` with `Run`'s `opf.Prepare` fallback, `horizon.Runner.Base` with `Runner.prepared` and the three `scopf.Build*Scenarios` are deleted, and `scopf.Cross` builds every scenario list in place of the draw loops `cmd/scopf` and `/v1/screen` wrote by hand (`/v1/screen` reads each outcome's draw as `i / perDraw`); the per-scenario-rebuild reference — `ScreenNaive`, `MatchNaive`, `Drift`, `NaiveCostTol`, `sameVerdict`, `relCostDiff`, 120 lines — moved into `internal/scopf/naive_test.go`, and `BenchmarkScreen` with its `BENCH_scopf.json` writer from the root harness into `internal/scopf/bench_test.go`"},
	{at: "after 61f472f", all: 14753, warmPath: 5135, kernel: 2846, why: "one benchmark harness (−44 counted lines with this row): the root `bench_test.go` and `bench_lifecycle_test.go` (1,234 test lines) are gone — their paper-table benchmarks duplicated the `cmd/` printers and are deleted, and each `BENCH_*.json` writer and `b.Fatal` pin moved into the package it measures (`internal/sparse`, `internal/opf`, `internal/core`, `internal/horizon`, `internal/serve`); counted code: `dataset.Generate` calls `opf.Prepare` itself (its one-valued preparer parameter and `DefaultPreparer` deleted), the drift detector's fired latch (`fired`, `firedAt`, `Fired`, `FiredAtWindow`, `Observe`'s early return) and its never-read `lastHit`/`lastIter` are deleted, and `cmd/results` renders the trajectory replay note without the JSON `replay` block"},
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
		log.Fatalf("%v (run the benchmark first: go test -run '^$' -bench PaperSystems -benchtime 1x ./internal/core)", err)
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
	w("go test -run '^$' -bench PaperSystems -benchtime 1x ./internal/core")
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
	w("The cold column is the MIPS-faithful one: `%s` was recorded", *in)
	w("before the solver corrected the KKT inertia while the barrier is")
	w("large (DESIGN.md §7), which shortens the cold solves of wrong-inertia")
	w("systems (case118 at nominal load: 34 → 17 iterations) and so shrinks")
	w("the speedup measured against them. The file is not regenerated here")
	w("(ROADMAP item 8a).")
	w("")
	w("Figure 9 (data-parallel inference on up to 128 V100 GPUs) is not")
	w("reproduced: it needs a GPU cluster, and a curve extrapolated from CPU")
	w("timings would be no evidence (DESIGN.md \"Substitutions\").")
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
		log.Printf("note: %s absent, kernel section skipped (run the BenchmarkLDLvsLU recipe in PERFORMANCE.md)", *kkt)
	}

	if tbuf, err := os.ReadFile(*traj); err == nil {
		renderTrajectory(w, *traj, tbuf)
	}

	if lbuf, err := os.ReadFile(*lc); err == nil {
		renderLifecycle(w, *lc, lbuf)
	}

	w("## Code size")
	w("")
	w("Non-test, non-data Go and assembly lines, tracked because the same")
	w("behaviour from less code is a goal in its own right (ROADMAP item 6). A")
	w("PR that moves the number adds its row to `codeSize` in `cmd/results`;")
	w("the counts are (the rows up to `after e52dd13` counted `.go` files")
	w("alone; the tree had no assembly until then)")
	w("")
	w("```sh")
	w("find . \\( -name '*.go' -o -name '*.s' \\) ! -name '*_test.go' ! -path './bench/*' ! -path './internal/grid/cases*.go' | xargs cat | wc -l")
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
// internal/sparse's BenchmarkKKTFactor; the RCM fill columns and the
// LDLᵀ-vs-LU race are history, recorded before RCM and the LU were
// deleted). Any part may be absent, so each table renders only when its
// rows exist.
func renderKernel(w func(string, ...any), path string, buf []byte) {
	var k kktReport
	if err := json.Unmarshal(buf, &k); err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	if fill := k.ProductionFill.Systems; len(fill) > 0 {
		w("## KKT fill by ordering (why every system is analyzed under minimum degree)")
		w("")
		w("Stored factor entries of the matrix MIPS factors — the reduced KKT")
		w("system, as a one-iteration cold solve analyzes it under each")
		w("ordering (`production_fill` in `%s`). The KKT path factors it", path)
		w("with LDLᵀ and stores nnz(L)+n; the L+U columns are what an LU of")
		w("the same elimination stores, 2·(nnz(L)+n), which the KKT path")
		w("stored before, and the flops are one factorization's")
		w("(`LDLSymbolic.Flops`). Every analysis uses exact minimum degree;")
		w("the RCM columns are history, recorded before reverse Cuthill–McKee")
		w("was deleted, and `TestKKTOrderingFill` holds minimum degree's fill")
		w("and flops below them (DESIGN.md §9).")
		w("")
		w("| system | KKT n | nnz(KKT) | L+U rcm | L+U mindegree | nnz(L)+n mindegree | mindegree / rcm | flops rcm | flops mindegree |")
		w("|---|---|---|---|---|---|---|---|---|")
		for _, n := range bySize(fill, func(f fillRow) int { return f.KKTN }) {
			f := fill[n]
			w("| %s | %d | %d | %d | %d | %d | %.2f | %d | %d |", n, f.KKTN, f.KKTNnz, f.RCM, f.MD, f.LDLMD,
				float64(f.MD)/float64(f.RCM), f.FlopsRCM, f.FlopsMD)
		}
		w("")
	}
	if k.Case == "" && len(k.LDLKernel.Systems) == 0 {
		log.Printf("note: %s has no kernel sections, skipped", path)
		return
	}
	w("## Numeric kernel: symbolic reuse and the supernodal LDLᵀ")
	w("")
	w("Self-timed sections of `%s` — the factorization layer under every", path)
	w("MIPS iteration above. Regenerate with the recipes in PERFORMANCE.md.")
	w("")
	if k.Case != "" {
		w("Reusing the frozen symbolic analysis (%s KKT, n=%d) makes a", k.Case, k.KKTN)
		w("refactorization %.1f× faster than a fresh analyze+factor.", k.SpeedupRefactorVsAnalyze)
		w("")
	}
	if len(k.LDLKernel.Systems) > 0 {
		w("History: the supernodal LDLᵀ every KKT system goes through, raced")
		w("against the scalar LU of the same elimination on the production KKT")
		w("matrix at iteration 10 of a cold solve (DESIGN.md §11), under the")
		w("ordering the section's `matrix` field names — recorded by")
		w("BenchmarkLDLvsLU before the LU was deleted. `internal/sparse`'s")
		w("BenchmarkLDLFactor keeps its backward-error and zero-allocation pins")
		w("on the LDLᵀ alone:")
		w("")
		w("| system | KKT n | L+U | nnz(L)+n | LU ms | LDLᵀ ms | speedup | supernodes | panel cols | supernode updates |")
		w("|---|---|---|---|---|---|---|---|---|---|")
		for _, n := range bySize(k.LDLKernel.Systems, func(s kernelRow) int { return s.KKTN }) {
			s := k.LDLKernel.Systems[n]
			w("| %s | %d | %d | %d | %.3f | %.3f | **%.2f×** | %d | %d | %d |",
				n, s.KKTN, s.LUNnz, s.LDLNnz, s.LUNs/1e6, s.LDLNs/1e6, s.Speedup, s.Supernodes, s.PanelCols, s.Updates)
		}
		w("")
	}
}

// renderTrajectory appends the multi-period crossover section from
// BENCH_trajectory.json (written by internal/horizon's BenchmarkTrajectory).
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
	w("The served stream is pinned by `internal/serve`'s")
	w("`TestTrajectoryStreamReplay`: the case14 trajectory replayed through")
	w("`POST /v1/trajectory` is bit-identical to the offline runner (every")
	w("step's convergence flags, iteration count, cost and dispatch).")
	w("")
}

// renderLifecycle appends the online-lifecycle section from
// BENCH_lifecycle.json (written by internal/serve's BenchmarkLifecycle).
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
