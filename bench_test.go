package smartpgsim_test

// The benchmark harness regenerates every table and figure of the paper
// (see DESIGN.md §5 for the experiment index). Each benchmark times the
// experiment's core operation with testing.B and prints the paper-style
// table once per `go test -bench` run, so the tee'd bench output doubles
// as the reproduction report. Paper-scale sample counts (10,000 problems,
// 8,000-sample training) are scaled down for CPU budgets; the cmd/ tools
// accept flags to run any size.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/casegen"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/horizon"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/opf"
	"repro/internal/scale"
	"repro/internal/scopf"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// fixture holds the shared trained state: built once, reused by every
// benchmark so `go test -bench=.` stays tractable.
type fixture struct {
	sys9    *core.System
	sys14   *core.System
	set9    *dataset.Set
	train9  *dataset.Set
	val9    *dataset.Set
	set14   *dataset.Set
	model9  *mtl.Model // Smart-PGSim variant, trained on case9
	model14 *mtl.Model
	eval9   core.EvalResult
	eval14  core.EvalResult
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		f := &fixture{}
		f.sys9 = core.MustLoadSystem("case9")
		f.sys14 = core.MustLoadSystem("case14")
		f.set9, fixErr = f.sys9.GenerateData(150, 101)
		if fixErr != nil {
			return
		}
		f.train9, f.val9 = f.set9.Split(0.8)
		f.model9, fixErr = f.sys9.TrainModel(mtl.VariantSmartPGSim, f.train9, 300, 11, nil)
		if fixErr != nil {
			return
		}
		f.set14, fixErr = f.sys14.GenerateData(120, 102)
		if fixErr != nil {
			return
		}
		train14, _ := f.set14.Split(0.8)
		f.model14, fixErr = f.sys14.TrainModel(mtl.VariantSmartPGSim, train14, 300, 12, nil)
		if fixErr != nil {
			return
		}
		_, val14 := f.set14.Split(0.8)
		f.eval9 = core.Evaluate(f.sys9, f.model9, f.val9, 0)
		f.eval14 = core.Evaluate(f.sys14, f.model14, val14, 0)
		fix = f
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

var printOnce sync.Map

// printReport emits a table once per process.
func printReport(key string, emit func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		emit()
	}
}

// BenchmarkTableI regenerates the warm-start component ablation; the
// timed operation is one all-precise warm-started OPF solve.
func BenchmarkTableI(b *testing.B) {
	f := getFixture(b)
	printReport("tableI", func() {
		rows := core.SensitivityStudy(f.sys9, f.set9, 12)
		core.PrintTableI(os.Stdout, []string{"case9"}, map[string][]core.SensRow{"case9": rows})
	})
	s := &f.set9.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc := f.sys9.Case.Clone()
		cc.ScaleLoads(s.Factors)
		o := opf.Prepare(cc)
		if _, err := o.Solve(&opf.Start{X: s.X, Lam: s.Lam, Mu: s.Mu, Z: s.Z}, opf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII prints the system configuration counts; the timed
// operation is OPF problem preparation.
func BenchmarkTableII(b *testing.B) {
	f := getFixture(b)
	printReport("tableII", func() {
		sys30 := core.MustLoadSystem("case30")
		sys57 := core.MustLoadSystem("case57")
		core.PrintTableII(os.Stdout, core.TableII([]*core.System{f.sys14, sys30, sys57}))
		fmt.Println("(case118/case300 rows: go run ./cmd/pgsim -case case118 / case300)")
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opf.Prepare(f.sys14.Case)
	}
}

// BenchmarkTableIII regenerates the NN-as-final-solution comparison; the
// timed operation is one model inference.
func BenchmarkTableIII(b *testing.B) {
	f := getFixture(b)
	printReport("tableIII", func() {
		rows := []core.ReplacementResult{
			core.ReplacementStudy(f.sys9, f.model9, f.val9, 0),
		}
		core.PrintTableIII(os.Stdout, rows)
	})
	in := f.val9.Samples[0].Input
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.model9.Predict(in)
	}
}

// BenchmarkFig4 regenerates the end-to-end MIPS vs Smart-PGSim rows; the
// timed operation is one full online-pipeline solve (predict + warm
// solve + fallback).
func BenchmarkFig4(b *testing.B) {
	f := getFixture(b)
	printReport("fig4", func() {
		core.PrintFig4(os.Stdout, []core.EvalResult{f.eval9, f.eval14})
	})
	s := &f.val9.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sys9.SolveWarm(f.model9, s.Factors, s.Input)
	}
}

// BenchmarkFig5 regenerates the runtime breakdown; the timed operation is
// one cold MIPS solve (the baseline whose Newton share dominates).
func BenchmarkFig5(b *testing.B) {
	f := getFixture(b)
	printReport("fig5", func() {
		core.PrintFig5(os.Stdout, []core.EvalResult{f.eval9, f.eval14})
	})
	s := &f.val9.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc := f.sys9.Case.Clone()
		cc.ScaleLoads(s.Factors)
		if _, err := opf.Prepare(cc).Solve(nil, opf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates the prediction-accuracy panels; the timed
// operation is predict + renormalize for one sample.
func BenchmarkFig6(b *testing.B) {
	f := getFixture(b)
	printReport("fig6", func() {
		core.PrintFig6(os.Stdout, core.PredictionAccuracy(f.sys9, f.model9, f.val9))
	})
	s := &f.val9.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := f.model9.Predict(s.Input)
		f.model9.Norm.X.NormalizeVec(st.X)
	}
}

// fig78 caches the expensive three-variant comparison shared by the
// Figure 7 and Figure 8 benchmarks.
var (
	fig78Once sync.Once
	fig78Rows []core.VariantResult
	fig78Err  error
)

func getFig78(b *testing.B) []core.VariantResult {
	f := getFixture(b)
	fig78Once.Do(func() {
		fig78Rows, fig78Err = core.CompareModels(f.sys9, f.train9, f.val9, 200, 21, 12, nil)
	})
	if fig78Err != nil {
		b.Fatal(fig78Err)
	}
	return fig78Rows
}

// BenchmarkFig7 regenerates the Sep-models / MTL / Smart-PGSim speedup
// and success-rate comparison; the timed operation is one warm solve.
func BenchmarkFig7(b *testing.B) {
	f := getFixture(b)
	rows := getFig78(b)
	printReport("fig7", func() { core.PrintFig7(os.Stdout, "case9", rows) })
	s := &f.val9.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sys9.SolveWarm(f.model9, s.Factors, s.Input)
	}
}

// BenchmarkFig8 regenerates the relative-error box plots; the timed
// operation is one prediction error evaluation.
func BenchmarkFig8(b *testing.B) {
	f := getFixture(b)
	rows := getFig78(b)
	printReport("fig8", func() { core.PrintFig8(os.Stdout, "case9", rows) })
	s := &f.val9.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := f.model9.Predict(s.Input)
		_ = st.X.Clone().Sub(s.X).NormInf()
	}
}

// BenchmarkFig9 regenerates the strong/weak scaling curves; the timed
// operation is a real 4-worker parallel inference batch.
func BenchmarkFig9(b *testing.B) {
	f := getFixture(b)
	tInf := scale.MeasureInference(f.model9, f.val9.Inputs())
	printReport("fig9", func() {
		cl := scale.DefaultCluster()
		workers := []int{1, 16, 32, 64, 128}
		fmt.Println("Figure 9a — strong scaling (10k scenarios)")
		fmt.Printf("%8s %10s %8s %8s\n", "workers", "speedup", "ideal", "eff")
		for _, p := range scale.StrongScaling(tInf, 10000, workers, cl) {
			fmt.Printf("%8d %9.1fx %7.0fx %7.1f%%\n", p.Workers, p.Speedup, p.Ideal, p.Eff*100)
		}
		fmt.Println("Figure 9b — weak scaling (10k scenarios/worker)")
		fmt.Printf("%8s %12s %8s\n", "workers", "TFLOP/s", "eff")
		for _, p := range scale.WeakScaling(tInf, 10000, scale.FlopsPerScenario(f.model9), workers, cl) {
			fmt.Printf("%8d %12.4f %7.1f%%\n", p.Workers, p.TFlops, p.Eff*100)
		}
	})
	inputs := f.val9.Inputs()
	big := la.NewMatrix(128, inputs.Cols)
	for r := 0; r < big.Rows; r++ {
		copy(big.Row(r), inputs.Row(r%inputs.Rows))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scale.RunParallel(f.model9, big, 4)
	}
}

// BenchmarkFig10 regenerates the convergence traces; the timed operation
// is one traced cold solve.
func BenchmarkFig10(b *testing.B) {
	f := getFixture(b)
	printReport("fig10", func() {
		core.PrintFig10(os.Stdout, core.ConvergenceStudy(f.sys9, &f.val9.Samples[0]))
	})
	s := &f.val9.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc := f.sys9.Case.Clone()
		cc.ScaleLoads(s.Factors)
		if _, err := opf.Prepare(cc).Solve(nil, opf.Options{RecordTrace: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHierarchy compares MTL training with and without the
// physics-dependent head hierarchy (design-choice ablation, DESIGN.md §6).
func BenchmarkAblationHierarchy(b *testing.B) {
	f := getFixture(b)
	printReport("ablHier", func() {
		for _, hier := range []bool{true, false} {
			cfg := mtl.Config{Variant: mtl.VariantMTL, Hierarchy: hier, DetachPeriod: 4, Seed: 31}
			m := mtl.New(f.sys9.OPF.Lay, cfg)
			hist, err := mtl.Train(m, nil, f.train9, mtl.TrainConfig{Epochs: 120, BatchSize: 16, Seed: 3})
			if err != nil {
				fmt.Println("ablation error:", err)
				return
			}
			ev := core.Evaluate(f.sys9, m, f.val9, 12)
			fmt.Printf("Ablation hierarchy=%-5v finalLoss=%.4f SU=%.2fx SR=%.0f%%\n",
				hier, hist.Supervised[len(hist.Supervised)-1], ev.SU, ev.SR*100)
		}
	})
	cfg := mtl.Config{Variant: mtl.VariantMTL, Hierarchy: true, Seed: 31}
	m := mtl.New(f.sys9.OPF.Lay, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mtl.Train(m, nil, f.train9, mtl.TrainConfig{Epochs: 1, BatchSize: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDetach compares training with and without the detach
// (feature prioritization) knob.
func BenchmarkAblationDetach(b *testing.B) {
	f := getFixture(b)
	printReport("ablDetach", func() {
		for _, period := range []int{0, 4} {
			cfg := mtl.Config{Variant: mtl.VariantMTL, Hierarchy: true, DetachPeriod: period, Seed: 33}
			m := mtl.New(f.sys9.OPF.Lay, cfg)
			hist, err := mtl.Train(m, nil, f.train9, mtl.TrainConfig{Epochs: 120, BatchSize: 16, Seed: 5})
			if err != nil {
				fmt.Println("ablation error:", err)
				return
			}
			ev := core.Evaluate(f.sys9, m, f.val9, 12)
			fmt.Printf("Ablation detachPeriod=%d finalLoss=%.4f SU=%.2fx SR=%.0f%%\n",
				period, hist.Supervised[len(hist.Supervised)-1], ev.SU, ev.SR*100)
		}
	})
	s := &f.val9.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.model9.Predict(s.Input)
	}
}

// BenchmarkAblationKKTOrdering compares the sparse LU fill-reducing
// ordering on an OPF-sized KKT matrix (the solver kernel choice).
func BenchmarkAblationKKTOrdering(b *testing.B) {
	f := getFixture(b)
	// Assemble a representative KKT-like matrix: the equality Jacobian
	// bordered system of case14.
	o := f.sys14.OPF
	x := o.DefaultStart()
	_, jg := o.Equality(x)
	nx := o.Lay.NX
	neq := o.Lay.NEq
	kb := sparse.NewBuilder(nx+neq, nx+neq)
	for i := 0; i < nx; i++ {
		kb.Append(i, i, 4)
	}
	kb.AppendCSC(nx, 0, 1, jg)
	kb.AppendCSC(0, nx, 1, jg.T())
	kkt := kb.ToCSC()
	printReport("ablKKT", func() {
		fn, err1 := sparse.FactorizeOpts(kkt, sparse.OrderNatural, 1)
		fr, err2 := sparse.FactorizeOpts(kkt, sparse.OrderRCM, 1)
		if err1 != nil || err2 != nil {
			fmt.Println("ablation error:", err1, err2)
			return
		}
		fmt.Printf("Ablation KKT ordering (case14, %dx%d): natural fill=%d RCM fill=%d\n",
			nx+neq, nx+neq, fn.NNZ(), fr.NNZ())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.FactorizeOpts(kkt, sparse.OrderRCM, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Solver-kernel benchmarks (PERFORMANCE.md). These are fixture-free — no
// dataset generation or model training — so the CI bench smoke job can run
// them with -benchtime=1x in seconds. The first invocation of either writes
// BENCH_kkt.json with self-timed numbers for the symbolic-reuse speedups.

// kktBench holds a KKT-shaped matrix of the case14 OPF: Hessian-proxy
// diagonal plus JhᵀJh on the (1,1) block, bordered by the equality
// Jacobian — the same proxy kktProxyFor builds, not the reduced system
// MIPS factors.
var (
	kktOnce   sync.Once
	kktMatrix *sparse.CSC
)

func kktBenchMatrix() *sparse.CSC {
	kktOnce.Do(func() {
		o := core.MustLoadSystem("case14").OPF
		x := o.DefaultStart()
		_, jg := o.Equality(x)
		_, jh := o.FullInequality(x)
		nx, neq := o.Lay.NX, o.Lay.NEq
		kb := sparse.NewBuilder(nx+neq, nx+neq)
		for i := 0; i < nx; i++ {
			kb.Append(i, i, 4)
		}
		jt := jh.T() // column r of jt is inequality row r
		for r := 0; r < jt.NCols; r++ {
			lo, hi := jt.ColPtr[r], jt.ColPtr[r+1]
			for p1 := lo; p1 < hi; p1++ {
				for p2 := lo; p2 < hi; p2++ {
					kb.Append(jt.RowIdx[p1], jt.RowIdx[p2], jt.Val[p1]*jt.Val[p2])
				}
			}
		}
		kb.AppendCSC(nx, 0, 1, jg)
		kb.AppendCSC(0, nx, 1, jg.T())
		kktMatrix = kb.ToCSC()
	})
	return kktMatrix
}

// BenchmarkKKTFactor times the two halves of the symbolic/numeric split
// on the case14 KKT matrix: a full analysis (ordering + pattern DFS +
// pivot search) versus a numeric refactorization on the cached symbolic.
func BenchmarkKKTFactor(b *testing.B) {
	kkt := kktBenchMatrix()
	writeKKTBenchReport(b)
	b.Run("analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparse.FactorizeOpts(kkt, sparse.OrderRCM, 1.0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refactor", func(b *testing.B) {
		sym, f, err := sparse.Analyze(kkt, sparse.OrderRCM, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		ws := sym.NewRefactorWorkspace()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sym.RefactorInto(f, ws, kkt); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, ord := range []sparse.Ordering{sparse.OrderNatural, sparse.OrderRCM, sparse.OrderAMD} {
		b.Run("ordering/"+ord.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sparse.FactorizeOpts(kkt, ord, 1.0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMIPSSolve times a cold case14 AC-OPF solve through the
// grid's shared KKT cache — the end-to-end number PERFORMANCE.md quotes.
func BenchmarkMIPSSolve(b *testing.B) {
	sys := core.MustLoadSystem("case14")
	writeKKTBenchReport(b)
	fac := make([]float64, sys.Case.NB())
	for i := range fac {
		fac[i] = 1.03
	}
	base := opf.Prepare(sys.Case)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.Perturb(fac).Solve(nil, opf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// screenScenarios builds a deterministic N-1 screening workload: nDraws
// ±10 % load draws crossed with every connected single-branch outage
// (plus the intact topology).
func screenScenarios(sys *core.System, nDraws int, seed int64) []scopf.Scenario {
	return scopf.BuildScenarios(benchDraws(sys.Case.NB(), nDraws, seed), scopf.Contingencies(sys.Case))
}

// benchDraws samples nDraws ±10 % per-bus load factor vectors.
func benchDraws(nb, nDraws int, seed int64) []la.Vector {
	r := rand.New(rand.NewSource(seed))
	draws := make([]la.Vector, nDraws)
	for i := range draws {
		f := make(la.Vector, nb)
		for k := range f {
			f[k] = 0.9 + 0.2*r.Float64()
		}
		draws[i] = f
	}
	return draws
}

// BenchmarkScreen times one N-1 contingency sweep on case14, on the
// topology-aware engine versus the naive per-scenario-rebuild baseline
// (cold screening: the pure structure-reuse comparison). The first
// invocation also writes BENCH_scopf.json (see writeScreenBenchReport),
// which adds the warm-projection sweep where the engine's headline
// speedup comes from.
func BenchmarkScreen(b *testing.B) {
	writeScreenBenchReport(b)
	sys := core.MustLoadSystem("case14")
	scenarios := screenScenarios(sys, 2, 33)
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := &scopf.Engine{Base: sys.Case, Workers: 1}
			if sum := scopf.Summarize(eng.Run(scenarios).Outcomes); sum.Feasible == 0 {
				b.Fatal("no feasible scenario")
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if sum := scopf.Summarize(scopf.ScreenNaive(sys.Case, nil, scenarios, 1)); sum.Feasible == 0 {
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
//     the naive path (scopf.MatchNaive: verdicts exact, iteration counts
//     and costs within the drift measured on this sweep, which is
//     recorded) before the numbers are written.
//   - case9 N-1, warm: every branch is rated, so the naive path silently
//     cold-solves all outage scenarios while the engine projects the
//     intact-system prediction onto each contingency layout — the
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
		sc14 := screenScenarios(sys14, 4, 33)
		var engOuts, naiveOuts []scopf.Outcome
		const reps = 2
		naiveNs, engineNs := measurePair(reps, func() {
			naiveOuts = scopf.ScreenNaive(sys14.Case, nil, sc14, 1)
		}, func() {
			engOuts = (&scopf.Engine{Base: sys14.Case, Workers: 1}).Run(sc14).Outcomes
		})
		// mustMatchNaive pins the engine to the naive path (scopf.MatchNaive:
		// every verdict exact, and no more drift in iteration counts and
		// costs than allow, the drift measured on the sweep when this pin
		// was written — none for a sweep that had none) and returns the
		// drift for the report.
		mustMatchNaive := func(name string, eng, naive []scopf.Outcome, allow scopf.Drift) scopf.Drift {
			d, err := scopf.MatchNaive(eng, naive, allow)
			if err != nil {
				b.Fatalf("%s: engine disagrees with naive: %v", name, err)
			}
			return d
		}
		coldDrift := mustMatchNaive("case14", engOuts, naiveOuts, scopf.Drift{IterDiffs: 19, IterAbs: 79})

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
		sc9 := screenScenarios(sys9, 6, 7)
		var warmEng, warmNaive []scopf.Outcome
		warmNaiveNs, warmEngineNs := measurePair(reps, func() {
			warmNaive = scopf.ScreenNaive(sys9.Case, m, sc9, 1)
		}, func() {
			warmEng = (&scopf.Engine{Base: sys9.Case, Model: m, Workers: 1}).Run(sc9).Outcomes
		})
		sumEng, sumNaive := scopf.Summarize(warmEng), scopf.Summarize(warmNaive)
		if sumEng.Feasible != sumNaive.Feasible {
			b.Fatalf("case9 warm: engine feasibility %d != naive %d", sumEng.Feasible, sumNaive.Feasible)
		}

		// --- generator outages, per-system -------------------------------
		// case14 cold is the structure-reuse comparison on the gen axis;
		// case9 warm adds the layout projection (a dropped unit removes its
		// Pg/Qg bound rows, so the naive path silently cold-solves).
		gsc14 := scopf.BuildGenScenarios(benchDraws(sys14.Case.NB(), 4, 33), scopf.GenContingencies(sys14.Case))
		var genEng, genNaive []scopf.Outcome
		genNaiveNs, genEngineNs := measurePair(reps, func() {
			genNaive = scopf.ScreenNaive(sys14.Case, nil, gsc14, 1)
		}, func() {
			genEng = (&scopf.Engine{Base: sys14.Case, Workers: 1}).Run(gsc14).Outcomes
		})
		genDrift := mustMatchNaive("case14 gen-outage", genEng, genNaive, scopf.Drift{})

		gsc9 := scopf.BuildGenScenarios(benchDraws(sys9.Case.NB(), 6, 7), scopf.GenContingencies(sys9.Case))
		var gwEng, gwNaive []scopf.Outcome
		gwNaiveNs, gwEngineNs := measurePair(reps, func() {
			gwNaive = scopf.ScreenNaive(sys9.Case, m, gsc9, 1)
		}, func() {
			gwEng = (&scopf.Engine{Base: sys9.Case, Model: m, Workers: 1}).Run(gsc9).Outcomes
		})
		gwSumEng, gwSumNaive := scopf.Summarize(gwEng), scopf.Summarize(gwNaive)
		if gwSumEng.Feasible != gwSumNaive.Feasible {
			b.Fatalf("case9 gen-outage warm: engine feasibility %d != naive %d", gwSumEng.Feasible, gwSumNaive.Feasible)
		}

		// --- N-2 branch pairs, per-system --------------------------------
		// case14 exhaustive pair set, engine vs naive (MatchNaive); then
		// the hierarchical top-K screen against the exhaustive reference,
		// re-verifying that every severe pair survives the pruning. case9 is
		// the islanding regime: every branch pair disconnects the 6-branch
		// ring, so the whole pair set is classified without a single solve.
		f14 := make(la.Vector, sys14.Case.NB())
		for i := range f14 {
			f14[i] = 1.1
		}
		cont14 := scopf.Contingencies(sys14.Case)
		pairSc14 := scopf.BuildPairScenarios([]la.Vector{f14}, scopf.AllPairs(cont14))
		var pairEng, pairNaive []scopf.Outcome
		pairNaiveNs, pairEngineNs := measurePair(1, func() {
			pairNaive = scopf.ScreenNaive(sys14.Case, nil, pairSc14, 1)
		}, func() {
			pairEng = (&scopf.Engine{Base: sys14.Case, Workers: 1}).Run(pairSc14).Outcomes
		})
		pairDrift := mustMatchNaive("case14 N-2 pair", pairEng, pairNaive, scopf.Drift{IterDiffs: 16, IterAbs: 71, MaxRelCost: 1e-8})

		const topK = 17 // smallest K retaining every solver-severe case14 pair (TestHierarchicalN2Sound)
		var exh, pruned *scopf.N2Result
		exhNs, prunedNs := measurePair(1, func() {
			exh = (&scopf.Engine{Base: sys14.Case, Workers: 1}).ScreenPairsTopK(f14, 0)
		}, func() {
			pruned = (&scopf.Engine{Base: sys14.Case, Workers: 1}).ScreenPairsTopK(f14, topK)
		})
		prunedOut := make(map[[2]int]scopf.Outcome, len(pruned.Pairs))
		for i, p := range pruned.Pairs {
			prunedOut[p] = pruned.Report.Outcomes[i]
		}
		severe := 0
		for i, p := range exh.Pairs {
			o := exh.Report.Outcomes[i]
			if o.Err == nil && o.Feasible && !o.Islanded {
				continue // not severe
			}
			severe++
			kept, ok := prunedOut[p]
			if !ok {
				b.Fatalf("hierarchical N-2 pruned away severe pair %v", p)
			}
			if kept.Feasible != o.Feasible || kept.Cost != o.Cost || kept.Iterations != o.Iterations || kept.Islanded != o.Islanded {
				b.Fatalf("hierarchical N-2 pair %v: pruned outcome differs from exhaustive: %+v vs %+v", p, kept, o)
			}
		}

		pairSc9 := scopf.BuildPairScenarios(benchDraws(sys9.Case.NB(), 1, 7), scopf.AllPairs(scopf.Contingencies(sys9.Case)))
		t0 := time.Now()
		islOuts := (&scopf.Engine{Base: sys9.Case, Workers: 1}).Run(pairSc9).Outcomes
		islNs := float64(time.Since(t0).Nanoseconds())
		sumIsl := scopf.Summarize(islOuts)
		if sumIsl.Islanded != len(pairSc9) {
			b.Fatalf("case9 N-2: expected all %d pairs to island, got %d", len(pairSc9), sumIsl.Islanded)
		}

		// --- warm/cold dispatch policy, per-system -----------------------
		// Each system trains its policy on its own screening log and is
		// re-screened with it against the cold baseline. The per-scenario
		// iteration guard is the acceptance invariant: the policy never
		// selects a mode slower than cold (this is what turns the case30
		// warm counter-regime from a hidden average into a dispatch
		// decision). On warm-favourable systems the conservative threshold
		// must not squander the headline speedup, so each row also reports
		// the in-sample policy cost against the always-warm baseline;
		// maxVsWarm > 0 enforces a ceiling on that ratio (1.05 on case57:
		// within 5 % of the recorded warm speedup).
		policyRow := func(name string, sys *core.System, m *mtl.Model, scenarios []scopf.Scenario, maxVsWarm float64) map[string]any {
			samples := scopf.CollectPolicySamples(&scopf.Engine{Base: sys.Case, Model: m, Workers: 1}, scenarios)
			pol := scopf.TrainPolicy(samples)
			if pol == nil {
				b.Fatalf("%s policy: screening log produced no samples", name)
			}
			hurts, winners, retained := 0, 0, 0
			policyCost, warmCost := 0, 0
			for _, s := range samples {
				if pol.UseWarm(s.Feat) {
					policyCost += s.WarmIters
				} else {
					policyCost += s.ColdIters
				}
				warmCost += s.WarmIters
				switch {
				case s.WarmHurts():
					hurts++
					if pol.UseWarm(s.Feat) {
						b.Fatalf("%s policy: accepts a warm start measured slower than cold", name)
					}
				case s.WarmWins():
					winners++
					if pol.UseWarm(s.Feat) {
						retained++
					}
				}
			}
			var polOuts, coldOuts []scopf.Outcome
			coldNs, polNs := measurePair(1, func() {
				coldOuts = (&scopf.Engine{Base: sys.Case, Workers: 1}).Run(scenarios).Outcomes
			}, func() {
				polOuts = (&scopf.Engine{Base: sys.Case, Model: m, Workers: 1, Policy: pol}).Run(scenarios).Outcomes
			})
			polIters, coldIters := 0, 0
			for i := range polOuts {
				p, cd := polOuts[i], coldOuts[i]
				if p.Err == nil && cd.Err == nil && cd.Feasible && p.Iterations > cd.Iterations {
					b.Fatalf("%s policy: scenario %d slower than cold (%d > %d iterations)", name, i, p.Iterations, cd.Iterations)
				}
				polIters += p.Iterations
				coldIters += cd.Iterations
			}
			vsWarm := float64(policyCost) / float64(warmCost)
			if maxVsWarm > 0 && vsWarm > maxVsWarm {
				b.Fatalf("%s policy: in-sample cost is %.2fx the always-warm baseline (ceiling %.2fx)", name, vsWarm, maxVsWarm)
			}
			sumPol := scopf.Summarize(polOuts)
			row := map[string]any{
				"scenarios":              len(scenarios),
				"samples":                len(samples),
				"warm_losses":            hurts,
				"warm_wins":              winners,
				"warm_wins_retained":     retained,
				"threshold":              pol.Threshold,
				"policy_cold":            sumPol.PolicyCold,
				"policy_iterations":      polIters,
				"cold_iterations":        coldIters,
				"iteration_speedup":      float64(coldIters) / float64(polIters),
				"wall_speedup":           coldNs / polNs,
				"cost_vs_always_warm":    vsWarm,
				"never_slower_than_cold": true, // per-scenario guard above, b.Fatal otherwise
			}
			return row
		}

		trainSystem := func(name string, nSamples, epochs int, seed int64) (*core.System, *mtl.Model) {
			sys := core.MustLoadSystem(name)
			set, err := sys.GenerateData(nSamples, seed)
			if err != nil {
				b.Fatal(err)
			}
			m, err := sys.TrainModel(mtl.VariantMTL, set, epochs, seed, nil)
			if err != nil {
				b.Fatal(err)
			}
			return sys, m
		}

		policy9 := policyRow("case9", sys9, m, sc9, 0)

		sys30, m30 := trainSystem("case30", 60, 150, 30)
		draws30 := benchDraws(sys30.Case.NB(), 3, 31)
		sc30 := scopf.BuildScenarios(draws30, scopf.Contingencies(sys30.Case)[:10])
		sc30 = append(sc30, scopf.BuildGenScenarios(draws30, scopf.GenContingencies(sys30.Case))...)
		policy30 := policyRow("case30", sys30, m30, sc30, 0)

		sys57, m57 := trainSystem("case57", 150, 150, 57)
		sc57 := scopf.BuildScenarios(benchDraws(sys57.Case.NB(), 2, 58), scopf.Contingencies(sys57.Case)[:6])
		policy57 := policyRow("case57", sys57, m57, sc57, 1.05)

		perScen := func(ns float64, n int) float64 { return ns / float64(n) }
		report := map[string]any{
			"benchmark": "scopf-screen",
			"produced_by": "go test -bench Screen (self-timed section; sequential workers=1, " +
				"see EXPERIMENTS.md §N-1 screening)",
			"case14_cold": map[string]any{
				"scenarios":              len(sc14),
				"contingencies":          len(sc14)/4 - 1,
				"naive_ns_per_scenario":  perScen(naiveNs, len(sc14)),
				"engine_ns_per_scenario": perScen(engineNs, len(sc14)),
				"speedup":                naiveNs / engineNs,
				"verdicts_match":         true, // scopf.MatchNaive above, b.Fatal otherwise
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
					"verdicts_match":         true, // scopf.MatchNaive above, b.Fatal otherwise
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
					"verdicts_match":         true, // scopf.MatchNaive above, b.Fatal otherwise
					"iteration_count_diffs":  pairDrift.IterDiffs,
					"iteration_drift_total":  pairDrift.IterAbs,
					"max_rel_cost_diff":      pairDrift.MaxRelCost,
				},
				"case14_hierarchical": map[string]any{
					"top_k":           topK,
					"exhaustive_ns":   exhNs,
					"pruned_ns":       prunedNs,
					"prune_speedup":   exhNs / prunedNs,
					"pairs_total":     len(exh.Pairs),
					"pairs_screened":  len(pruned.Pairs),
					"pairs_skipped":   pruned.Skipped,
					"severe_pairs":    severe,
					"severe_retained": true, // verified above, b.Fatal otherwise
				},
				"case9_islanding": map[string]any{
					"pairs":          len(pairSc9),
					"islanded":       sumIsl.Islanded,
					"ns_per_pair":    perScen(islNs, len(pairSc9)),
					"solver_invoked": false, // all pairs classified by the connectivity check
				},
			},
			"policy": map[string]any{
				"case9":  policy9,
				"case30": policy30,
				"case57": policy57,
			},
			"warm_speedup": warmNaiveNs / warmEngineNs, // unitless ratio (naive/engine wall clock)
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_scopf.json", append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Printf("BENCH_scopf.json: warm N-1 screen %.2fx naive (projection: %d/%d warm vs %d/%d), cold case14 %.2fx verdicts match\n",
			warmNaiveNs/warmEngineNs, sumEng.WarmConverged, len(sc9), sumNaive.WarmConverged, len(sc9),
			naiveNs/engineNs)
		fmt.Printf("BENCH_scopf.json: gen-outage %.2fx (case14 cold) %.2fx (case9 warm); N-2 pairs %.2fx, hierarchy prunes %d/%d pairs (%.2fx, %d severe retained)\n",
			genNaiveNs/genEngineNs, gwNaiveNs/gwEngineNs, pairNaiveNs/pairEngineNs,
			pruned.Skipped, len(exh.Pairs), exhNs/prunedNs, severe)
		fmt.Printf("BENCH_scopf.json: policy case30 %.2fx vs cold (%v dispatched cold), case9/case57 keep their warm wins\n",
			policy30["iteration_speedup"], policy30["policy_cold"])
	})
}

// ---------------------------------------------------------------------------
// Paper-scale system benchmarks (RESULTS.md). BenchmarkPaperSystems runs the
// full offline+online pipeline once per embedded paper system — dataset
// generation, Smart-PGSim training, warm-vs-cold evaluation — with the
// bench-profile sizes below (smaller than core.TrainingDefaults so a full
// sweep stays in minutes), then times one warm online solve per b.N. Each
// completed system merges its row into BENCH_paper.json, so a filtered run
// (CI: -bench 'PaperSystems/case57$') writes just its systems and a full run
// writes all four. cmd/results renders the JSON into RESULTS.md, the
// paper-vs-reproduction comparison against the 2.60× average-speedup claim.

// paperBenchProfile holds the bench-profile offline sizes per system.
// case1354 is the beyond-paper scaling row (ROADMAP: 1000+ bus grids):
// the paper's own evaluation stops at case300, so its row demonstrates
// that the warm-start pipeline and the blocked KKT kernel carry past
// the paper's scale, not a comparison against a paper number.
var paperBenchProfile = map[string]struct{ draws, epochs int }{
	"case30":   {64, 200},
	"case57":   {48, 150},
	"case118":  {24, 100},
	"case300":  {12, 60},
	"case1354": {8, 40},
}

var (
	paperReportMu sync.Mutex
	paperReport   = map[string]map[string]any{}
)

// benchSkipLarge reports whether the 1354-bus rows should be skipped:
// `-short` or PGSIM_BENCH_SKIP_LARGE=1 (the CI smoke setting) drops
// them — one cold case1354 solve is ~10 s, dwarfing every other row —
// while full, ungated runs remain the quotable path. A gated run never
// truncates committed reports: skipped systems simply keep their
// on-disk rows (writePaperBenchReport / mergeKKTReport merge).
func benchSkipLarge() bool {
	return testing.Short() || os.Getenv("PGSIM_BENCH_SKIP_LARGE") == "1"
}

// BenchmarkPaperSystems is the scale-aware harness over the embedded
// paper systems; the timed operation is one warm online-pipeline solve.
func BenchmarkPaperSystems(b *testing.B) {
	for _, name := range []string{"case30", "case57", "case118", "case300", "case1354"} {
		if name == "case1354" && benchSkipLarge() {
			b.Run(name, func(b *testing.B) {
				b.Skip("case1354 gated by -short/PGSIM_BENCH_SKIP_LARGE; run ungated for the quotable row")
			})
			continue
		}
		b.Run(name, func(b *testing.B) { benchPaperSystem(b, name) })
	}
}

func benchPaperSystem(b *testing.B, name string) {
	prof := paperBenchProfile[name]
	sys := core.MustLoadSystem(name)
	set, err := sys.GenerateData(prof.draws, 42+int64(sys.Case.NB()))
	if err != nil {
		b.Fatal(err)
	}
	train, val := set.Split(0.75)
	model, err := sys.TrainModel(mtl.VariantSmartPGSim, train, prof.epochs, 17, nil)
	if err != nil {
		b.Fatal(err)
	}
	ev := core.Evaluate(sys, model, val, 0)

	lay := sys.OPF.Lay
	row := map[string]any{
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
	}
	writePaperBenchReport(b, name, row)

	s := &val.Samples[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.SolveWarm(model, s.Factors, s.Input)
	}
}

// kktProxyFor assembles a bordered KKT-shaped matrix of an OPF
// instance: Hessian-proxy diagonal plus JhᵀJh on the (1,1) block,
// bordered by the equality Jacobian. It is a kernel workload, not the
// matrix MIPS factors: without the Lagrangian Hessian's blocks and
// value-pivoted, its L+U is 3–5× the production analysis's (case300:
// 141,774 under AMD vs 40,330 — the "production_fill" section of
// BENCH_kkt.json is the real one).
func kktProxyFor(o *opf.OPF) *sparse.CSC {
	x := o.DefaultStart()
	_, jg := o.Equality(x)
	_, jh := o.FullInequality(x)
	nx, neq := o.Lay.NX, o.Lay.NEq
	kb := sparse.NewBuilder(nx+neq, nx+neq)
	for i := 0; i < nx; i++ {
		kb.Append(i, i, 4)
	}
	jt := jh.T() // column r of jt is inequality row r
	for r := 0; r < jt.NCols; r++ {
		lo, hi := jt.ColPtr[r], jt.ColPtr[r+1]
		for p1 := lo; p1 < hi; p1++ {
			for p2 := lo; p2 < hi; p2++ {
				kb.Append(jt.RowIdx[p1], jt.RowIdx[p2], jt.Val[p1]*jt.Val[p2])
			}
		}
	}
	kb.AppendCSC(nx, 0, 1, jg)
	kb.AppendCSC(0, nx, 1, jg.T())
	return kb.ToCSC()
}

// writePaperBenchReport merges one system's row into BENCH_paper.json.
// Rows already on disk are kept (fresh measurements override their own
// system only), so a filtered run — CI's case57-only smoke, say — never
// truncates a committed full-sweep report; the file is rewritten after
// every system so even an interrupted sweep leaves a consistent report.
func writePaperBenchReport(b *testing.B, name string, row map[string]any) {
	b.Helper()
	paperReportMu.Lock()
	defer paperReportMu.Unlock()
	if len(paperReport) == 0 {
		if buf, err := os.ReadFile("BENCH_paper.json"); err == nil {
			var prev struct {
				Systems map[string]map[string]any `json:"systems"`
			}
			if json.Unmarshal(buf, &prev) == nil {
				for k, v := range prev.Systems {
					paperReport[k] = v
				}
			}
		}
	}
	paperReport[name] = row
	sum, n := 0.0, 0
	for _, r := range paperReport {
		sum += r["speedup"].(float64)
		n++
	}
	report := map[string]any{
		"benchmark": "paper-systems",
		"produced_by": "go test -run '^$' -bench BenchmarkPaperSystems -benchtime 1x . " +
			"(bench-profile offline sizes; see EXPERIMENTS.md §Paper-scale sweep)",
		"paper_claim": map[string]any{
			"avg_speedup": 2.60,
			"source":      "conf_sc_DongXKL20 abstract: average 2.60x over MIPS on IEEE systems up to 300 buses",
		},
		"measured_avg_speedup": sum / float64(n),
		"systems":              paperReport,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_paper.json", append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	fmt.Printf("BENCH_paper.json: %s warm speedup %.2fx (SR %.0f%%), %d/%d systems measured\n",
		name, row["speedup"].(float64), row["success_rate"].(float64)*100, n, len(paperBenchProfile))
}

var kktReportOnce sync.Once

// writeKKTBenchReport self-times the symbolic-reuse speedups over fixed
// repetition counts (independent of -benchtime) and writes BENCH_kkt.json,
// the machine-readable benchmark trajectory PERFORMANCE.md documents.
func writeKKTBenchReport(b *testing.B) {
	b.Helper()
	kktReportOnce.Do(func() {
		kkt := kktBenchMatrix()
		timeIt := func(reps int, f func() error) (nsPerOp float64) {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(reps)
		}

		const facReps = 200
		analyzeNs := timeIt(facReps, func() error {
			_, err := sparse.FactorizeOpts(kkt, sparse.OrderRCM, 1.0)
			return err
		})
		sym, f, err := sparse.Analyze(kkt, sparse.OrderRCM, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		ws := sym.NewRefactorWorkspace()
		refactorNs := timeIt(facReps, func() error { return sym.RefactorInto(f, ws, kkt) })

		fill := map[string]int{}
		for _, ord := range []sparse.Ordering{sparse.OrderNatural, sparse.OrderRCM, sparse.OrderAMD} {
			f, err := sparse.FactorizeOpts(kkt, ord, 1.0)
			if err != nil {
				b.Fatal(err)
			}
			fill[ord.String()] = f.NNZ()
		}

		sys := core.MustLoadSystem("case14")
		fac := make([]float64, sys.Case.NB())
		for i := range fac {
			fac[i] = 1.03
		}
		const solveReps = 10
		base := opf.Prepare(sys.Case)
		reuseNs := timeIt(solveReps, func() error {
			_, err := base.Perturb(fac).Solve(nil, opf.Options{})
			return err
		})

		mergeKKTReport(b, map[string]any{
			"benchmark": "kkt-symbolic-reuse",
			"produced_by": "go test -bench 'KKTFactor|MIPSSolve' (self-timed section; " +
				"see PERFORMANCE.md)",
			"case":    "case14",
			"kkt_n":   kkt.NRows,
			"kkt_nnz": kkt.NNZ(),
			"entries": []map[string]any{
				{"name": "KKTFactor/analyze", "ns_per_op": analyzeNs, "ops": facReps},
				{"name": "KKTFactor/refactor", "ns_per_op": refactorNs, "ops": facReps},
				{"name": "MIPSSolve/reuse", "ns_per_op": reuseNs, "ops": solveReps},
			},
			"fill_by_ordering":            fill,
			"speedup_refactor_vs_analyze": analyzeNs / refactorNs,
			"production_fill":             productionFill(b),
		})
		fmt.Printf("BENCH_kkt.json: refactor %.1fx faster than analyze, cold MIPS solve %.2f ms\n",
			analyzeNs/refactorNs, reuseNs/1e6)
	})
}

// productionFill is the "production_fill" section of BENCH_kkt.json:
// per embedded system, the KKT matrix MIPS really factors — the reduced
// system of dimension NX + NEq, unlike the proxies above — and its L+U
// under RCM and AMD, read from the pivot-shaped analysis a one-iteration
// cold solve publishes to the instance's cache. RESULTS.md "KKT fill by
// ordering" renders it; opf's TestKKTOrderingFill asserts it.
func productionFill(b *testing.B) map[string]any {
	systems := map[string]any{}
	for _, name := range casegen.EmbeddedNames() {
		if name == "case1354" && benchSkipLarge() {
			continue // on-disk row preserved by mergeKKTReport
		}
		c, err := casegen.Paper(name)
		if err != nil {
			b.Fatal(err)
		}
		row := map[string]any{}
		for _, ord := range []sparse.Ordering{sparse.OrderRCM, sparse.OrderAMD} {
			o := opf.Prepare(c)
			o.SetOrdering(ord)
			_, _ = o.Solve(nil, opf.Options{MaxIter: 1}) // never converges; the analysis is what is wanted
			sym := o.KKTSymbolic()
			if sym == nil {
				b.Fatalf("%s %v: the first iteration published no analysis", name, ord)
			}
			row["kkt_n"], row["kkt_nnz"] = sym.N(), sym.PatternNNZ()
			row["lu_nnz_"+ord.String()] = sym.NNZ()
		}
		systems[name] = row
	}
	return map[string]any{
		"pattern": "reduced KKT system of a MaxIter: 1 cold solve, pivot-shaped analysis (opf.KKTSymbolic)",
		"systems": systems,
	}
}

var kktReportMu sync.Mutex

// mergeKKTReport read-modify-writes BENCH_kkt.json: the given keys
// overwrite their own top-level entries and everything else already on
// disk is preserved, so the symbolic-reuse and blocked-kernel sections
// regenerate independently without truncating each other (the same
// convention writePaperBenchReport uses for per-system rows). Within a
// section, per-system rows already on disk survive a run that measured
// fewer systems (a gated or smoke run), so partial regeneration never
// loses the case1354 row.
func mergeKKTReport(b *testing.B, sections map[string]any) {
	b.Helper()
	kktReportMu.Lock()
	defer kktReportMu.Unlock()
	report := map[string]any{}
	if buf, err := os.ReadFile("BENCH_kkt.json"); err == nil {
		// A corrupt or absent file is simply rebuilt from this run.
		_ = json.Unmarshal(buf, &report)
	}
	for k, v := range sections {
		if newSec, ok := v.(map[string]any); ok {
			if oldSec, ok := report[k].(map[string]any); ok {
				newSys, okNew := newSec["systems"].(map[string]any)
				oldSys, okOld := oldSec["systems"].(map[string]any)
				if okNew && okOld {
					for name, row := range oldSys {
						if _, fresh := newSys[name]; !fresh {
							newSys[name] = row
						}
					}
				}
			}
		}
		report[k] = v
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_kkt.json", append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

var blockedReportOnce sync.Once

// BenchmarkRefactorBlocked races the blocked panel LU kernel against
// the scalar column kernel on the bordered KKT proxies of the three
// largest embedded systems (case118, case300, case1354) and writes the
// "blocked_kernel" section of BENCH_kkt.json. Two invariants are
// enforced with b.Fatal rather than merely reported: both kernels must
// produce factors with identical fill whose solves agree to 1e-9 on a
// deterministic RHS, and both warm RefactorInto paths must run
// allocation-free. The b.N loop itself times the headline case300
// blocked refactorization.
func BenchmarkRefactorBlocked(b *testing.B) {
	blockedReportOnce.Do(func() { writeBlockedKernelReport(b) })
	sys := core.MustLoadSystem("case300")
	kkt := kktProxyFor(sys.OPF)
	sym, _, err := sparse.Analyze(kkt, sparse.OrderAMD, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	f := &sparse.LUFactors{}
	ws := sym.NewRefactorWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sym.RefactorBlockedInto(f, ws, kkt); err != nil {
			b.Fatal(err)
		}
	}
}

// writeBlockedKernelReport self-times scalar vs blocked refactorization
// over fixed repetition counts (independent of -benchtime) and merges
// the per-system rows into BENCH_kkt.json.
func writeBlockedKernelReport(b *testing.B) {
	b.Helper()
	reps := map[string]int{"case118": 100, "case300": 40, "case1354": 10}
	names := []string{"case118", "case300", "case1354"}
	if benchSkipLarge() {
		names = names[:2]
		fmt.Println("BENCH_kkt.json: blocked_kernel case1354 row gated by -short/PGSIM_BENCH_SKIP_LARGE (on-disk row preserved)")
	}
	systems := map[string]any{}
	for _, name := range names {
		sys := core.MustLoadSystem(name)
		kkt := kktProxyFor(sys.OPF)
		sym, _, err := sparse.Analyze(kkt, sparse.OrderAMD, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		ps := sym.PanelStats()

		fScalar := &sparse.LUFactors{}
		wsScalar := sym.NewRefactorWorkspace()
		fBlocked := &sparse.LUFactors{}
		wsBlocked := sym.NewRefactorWorkspace()
		if err := sym.RefactorInto(fScalar, wsScalar, kkt); err != nil {
			b.Fatal(err)
		}
		if err := sym.RefactorBlockedInto(fBlocked, wsBlocked, kkt); err != nil {
			b.Fatal(err)
		}

		// Equivalence pin: identical fill, and solves that agree on a
		// deterministic RHS to 1e-9 relative — the blocked kernel must
		// be a pure reimplementation, not an approximation.
		if fScalar.NNZ() != fBlocked.NNZ() {
			b.Fatalf("%s: scalar fill %d != blocked fill %d", name, fScalar.NNZ(), fBlocked.NNZ())
		}
		r := rand.New(rand.NewSource(42))
		rhs := make(la.Vector, kkt.NRows)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		x1, x2 := fScalar.Solve(rhs), fBlocked.Solve(rhs)
		var scale float64
		for i := range x1 {
			if a := math.Abs(x1[i]); a > scale {
				scale = a
			}
		}
		for i := range x1 {
			if d := math.Abs(x1[i] - x2[i]); d > 1e-9*scale {
				b.Fatalf("%s: scalar and blocked solves diverge at %d: %v vs %v (|x|∞=%v)",
					name, i, x1[i], x2[i], scale)
			}
		}

		// Warm-path allocation pin: after the first refactorization both
		// kernels must reuse their factors and workspace exactly.
		scalarAllocs := testing.AllocsPerRun(5, func() {
			if err := sym.RefactorInto(fScalar, wsScalar, kkt); err != nil {
				b.Fatal(err)
			}
		})
		blockedAllocs := testing.AllocsPerRun(5, func() {
			if err := sym.RefactorBlockedInto(fBlocked, wsBlocked, kkt); err != nil {
				b.Fatal(err)
			}
		})
		if scalarAllocs != 0 || blockedAllocs != 0 {
			b.Fatalf("%s: warm refactor allocates (scalar %.0f, blocked %.0f allocs/op)",
				name, scalarAllocs, blockedAllocs)
		}

		n := reps[name]
		timeIt := func(f func() error) float64 {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
			return float64(time.Since(t0).Nanoseconds()) / float64(n)
		}
		scalarNs := timeIt(func() error { return sym.RefactorInto(fScalar, wsScalar, kkt) })
		blockedNs := timeIt(func() error { return sym.RefactorBlockedInto(fBlocked, wsBlocked, kkt) })

		systems[name] = map[string]any{
			"kkt_n":         kkt.NRows,
			"kkt_nnz":       kkt.NNZ(),
			"lu_nnz":        fScalar.NNZ(),
			"scalar_ns":     scalarNs,
			"blocked_ns":    blockedNs,
			"speedup":       scalarNs / blockedNs,
			"ops":           n,
			"supernodes":    ps.Supernodes,
			"panel_cols":    ps.PanelCols,
			"max_width":     ps.MaxWidth,
			"panel_frac":    ps.PanelFrac,
			"auto_blocked":  ps.Blocked,
			"scalar_allocs": scalarAllocs,
			"warm_allocs":   blockedAllocs,
		}
		fmt.Printf("BENCH_kkt.json: %s blocked refactor %.2fx vs scalar (%.2f ms vs %.2f ms, %d supernodes, %.0f%% panel flops)\n",
			name, scalarNs/blockedNs, blockedNs/1e6, scalarNs/1e6, ps.Supernodes, 100*ps.PanelFrac)
	}
	mergeKKTReport(b, map[string]any{
		"blocked_kernel": map[string]any{
			"produced_by": "go test -run '^$' -bench BenchmarkRefactorBlocked -benchtime 1x . " +
				"(self-timed section; equivalence and zero-alloc pins enforced with b.Fatal)",
			"ordering": "amd",
			"systems":  systems,
		},
	})
}

// ---------------------------------------------------------------------------
// Multi-period trajectory benchmarks (BENCH_trajectory.json). The study:
// on each system, the same synthetic load trajectory is solved cold,
// with warm-start chaining (each step starts from the previous step's
// full primal/dual solution) and with per-step model prediction. The
// report records both speedups over cold and the per-system winner —
// the chain-vs-predict crossover — plus a served-replay pin: the same
// trajectory streamed through POST /v1/trajectory must be bit-identical
// to the offline runner, enforced with b.Fatal.

// trajBenchProfile holds the bench-profile sizes per system: offline
// training sizes for the predict mode (paper-bench scale) and the
// trajectory itself.
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

// BenchmarkTrajectory times one chain-mode trajectory on case14; the
// first invocation writes BENCH_trajectory.json (the crossover study
// over case14/case57/case118 plus the served-replay pin).
func BenchmarkTrajectory(b *testing.B) {
	writeTrajectoryBenchReport(b)
	sys := core.MustLoadSystem("case14")
	traj, err := horizon.Synthetic(sys.Case.NB(), trajBenchSteps, trajBenchSeed, trajBenchAmp, trajBenchSpread)
	if err != nil {
		b.Fatal(err)
	}
	ramp := horizon.RampFromRange(sys.OPF, trajBenchFrac)
	r := &horizon.Runner{Prepared: sys.OPF, Mode: horizon.ModeChain, RampUp: ramp, RampDown: ramp, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(traj)
		if err != nil || res.Converged == 0 {
			b.Fatalf("trajectory failed: %v", err)
		}
	}
}

// runTrajMode solves the bench trajectory on sys in one mode and
// returns the result (Workers=1: per-step costs, not throughput).
func runTrajMode(b *testing.B, sys *core.System, mode horizon.Mode, m *mtl.Model, traj *horizon.Trajectory) *horizon.Result {
	b.Helper()
	ramp := horizon.RampFromRange(sys.OPF, trajBenchFrac)
	r := &horizon.Runner{Prepared: sys.OPF, Mode: mode, Model: m, RampUp: ramp, RampDown: ramp, Workers: 1}
	res, err := r.Run(traj)
	if err != nil {
		b.Fatalf("%s %s trajectory: %v", sys.Name, mode, err)
	}
	return res
}

// writeTrajectoryBenchReport measures the chain-vs-predict crossover on
// case14/case57/case118 and writes BENCH_trajectory.json. Before any
// timing, the case14 chain trajectory is replayed through the streaming
// endpoint and pinned bit-identical to the offline runner.
func writeTrajectoryBenchReport(b *testing.B) {
	b.Helper()
	trajectoryReportOnce.Do(func() {
		systems := map[string]map[string]any{}
		var replay map[string]any
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
			traj, err := horizon.Synthetic(sys.Case.NB(), trajBenchSteps, trajBenchSeed, trajBenchAmp, trajBenchSpread)
			if err != nil {
				b.Fatal(err)
			}
			if name == "case14" {
				replay = pinServedReplay(b, sys, traj)
			}

			// One untimed warm-up per mode, then alternate the timed
			// repetitions so allocator drift cannot bias the ratios.
			modes := []horizon.Mode{horizon.ModeCold, horizon.ModeChain, horizon.ModePredict}
			results := make([]*horizon.Result, len(modes))
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
		report := map[string]any{
			"benchmark": "trajectory",
			"produced_by": "go test -run '^$' -bench BenchmarkTrajectory -benchtime 1x . " +
				"(chain-vs-predict crossover; see EXPERIMENTS.md §Trajectory crossover)",
			"steps": trajBenchSteps, "seed": trajBenchSeed,
			"amp": trajBenchAmp, "spread": trajBenchSpread, "ramp_frac": trajBenchFrac,
			"replay":  replay,
			"systems": systems,
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_trajectory.json", append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	})
}

// pinServedReplay streams the bench trajectory through POST
// /v1/trajectory (chain mode, no model) and fails the benchmark unless
// every step is bit-identical — flags, iterations, cost and dispatch —
// to the offline runner on the same prepared system.
func pinServedReplay(b *testing.B, sys *core.System, traj *horizon.Trajectory) map[string]any {
	b.Helper()
	ramp := horizon.RampFromRange(sys.OPF, trajBenchFrac)
	r := &horizon.Runner{Prepared: sys.OPF, Mode: horizon.ModeChain, RampUp: ramp, RampDown: ramp, Workers: 1}
	ref, err := r.Run(traj)
	if err != nil {
		b.Fatal(err)
	}

	srv := serve.New(serve.Config{})
	defer srv.Close()
	srv.AddSystem(sys, nil)
	body := fmt.Sprintf(`{"system":%q,"steps":%d,"mode":"chain","seed":%d,"amp":%v,"spread":%v,"ramp_frac":%v}`,
		sys.Name, trajBenchSteps, trajBenchSeed, trajBenchAmp, trajBenchSpread, trajBenchFrac)
	req := httptest.NewRequest(http.MethodPost, "/v1/trajectory", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("served replay: status %d (%s)", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	if len(lines) != trajBenchSteps+1 {
		b.Fatalf("served replay: %d lines, want %d steps + summary", len(lines), trajBenchSteps)
	}
	for i, sr := range ref.Steps {
		var ln serve.TrajectoryStep
		if err := json.Unmarshal([]byte(lines[i]), &ln); err != nil {
			b.Fatalf("served replay line %d: %v", i, err)
		}
		if ln.Step != i || ln.Converged != sr.Converged || ln.Warm != sr.WarmUsed ||
			ln.Iterations != sr.Iterations || ln.Cost != sr.Cost {
			b.Fatalf("served replay diverges at step %d: %+v vs offline %+v", i, ln, sr)
		}
		for g := range ln.Pg {
			if ln.Pg[g] != sr.Result.Pg[g] {
				b.Fatalf("served replay step %d gen %d: Pg %v != offline %v", i, g, ln.Pg[g], sr.Result.Pg[g])
			}
		}
	}
	return map[string]any{
		"system": sys.Name, "steps": trajBenchSteps,
		"served_bit_identical": true,
	}
}
