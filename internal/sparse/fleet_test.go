package sparse_test

// The embedded-fleet half of the LDLᵀ kernel tests: the reduced KKT
// matrices MIPS really factors, assembled by a mips.Stepper at real
// interior-point iterates of every embedded system. Random-pattern and
// fuzz coverage live in ldl_test.go (package sparse).

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mips"
	"repro/internal/opf"
	"repro/internal/sparse"
)

// productionKKT returns the reduced KKT matrix of a cold solve of the
// embedded system name after each of the given numbers of steps
// (ascending) — the matrix the solver factors there, one pattern for
// all — and the number of primal variables: rows from nx on are dual.
func productionKKT(tb testing.TB, name string, iters ...int) (kkts []*sparse.CSC, nx int) {
	tb.Helper()
	c, err := grid.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	o := opf.Prepare(c)
	s := mips.NewStepper(o.Problem(), o.DefaultStart(), nil, mips.Options{})
	it := 0
	for _, want := range iters {
		for ; it < want; it++ {
			if done, err := s.Step(); done {
				tb.Fatalf("%s: the solve finished at iteration %d before iteration %d: %v", name, it, want, err)
			}
		}
		s.Assemble()
		kkts = append(kkts, s.KKT())
	}
	return kkts, o.Lay.NX
}

// skipLargeInShort gates the 1354-bus fleet subtests: their solves and
// factorizations dominate the package's test time, so -short (CI's
// default tier) runs the paper-scale systems only. A full
// `go test ./internal/sparse` still covers every embedded system.
func skipLargeInShort(t *testing.T, name string) {
	t.Helper()
	if testing.Short() && name == "case1354" {
		t.Skip("1354-bus fleet factorizations are slow; run without -short for full coverage")
	}
}

// onPattern returns a symmetric quasi-definite matrix on m's pattern:
// off-diagonal values drawn from N(0,1), each primal diagonal entry
// dominating its row, the dual diagonal −1.
func onPattern(r *rand.Rand, m *sparse.CSC, nx int) *sparse.CSC {
	c := m.Clone()
	rowSum := make([]float64, c.NRows)
	for j := 0; j < c.NCols; j++ {
		for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
			if i := c.RowIdx[p]; i > j {
				v := r.NormFloat64()
				c.Val[p] = v
				rowSum[i] += math.Abs(v)
				rowSum[j] += math.Abs(v)
			}
		}
	}
	for j := 0; j < c.NCols; j++ {
		for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
			switch i := c.RowIdx[p]; {
			case i < j:
				c.Val[p] = c.At(j, i)
			case i == j && j < nx:
				c.Val[p] = 1 + rowSum[j]
			case i == j:
				c.Val[p] = -1
			}
		}
	}
	return c
}

// The supernodal LDLᵀ solves systems on every embedded grid's
// production KKT pattern — the pattern MIPS factors, taken at a real
// iterate, with its supernode structure — to a normwise backward error
// below 1e-9 (backwardError, computed with CSC.MulVec and no second
// factorization; the bound BenchmarkLDLFactor enforces on the production
// matrix): analyzed once, factoring two value draws. The values are
// well-conditioned quasi-definite draws so that the check measures the
// kernel (the production values are covered by
// TestLDLFactorsSlotIndependent and by every solver test above this
// package).
func TestRefactorBlockedEmbeddedFleet(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, name := range grid.Names() {
		t.Run(name, func(t *testing.T) {
			skipLargeInShort(t, name)
			kkts, nx := productionKKT(t, name, 2)
			sym := sparse.AnalyzeLDL(kkts[0])
			f := &sparse.LDLFactors{}
			for draw := 0; draw < 2; draw++ {
				m := onPattern(r, kkts[0], nx)
				if err := sym.FactorInto(f, m); err != nil {
					t.Fatal(err)
				}
				rhs := make(la.Vector, m.NRows)
				for i := range rhs {
					rhs[i] = r.NormFloat64()
				}
				x := make(la.Vector, m.NRows)
				f.SolveInto(x, rhs, make(la.Vector, m.NRows))
				if be := backwardError(m, x, rhs); be > 1e-9 {
					t.Fatalf("%s: LDLᵀ solve backward error %.3g, want ≤ 1e-9", name, be)
				}
			}
			count, panelCols := sym.Supernodes()
			t.Logf("%s: n=%d nnz(L)+n=%d supernodes=%d panelCols=%d", name, sym.N(), sym.NNZ(), count, panelCols)
		})
	}
}

// backwardError is the normwise backward error ‖a·x − rhs‖∞ /
// (max|a|·‖x‖∞ + ‖rhs‖∞) of a solve.
func backwardError(a *sparse.CSC, x, rhs la.Vector) float64 {
	var norm float64
	for _, v := range a.Val {
		norm = math.Max(norm, math.Abs(v))
	}
	return a.MulVec(x).AddScaled(-1, rhs).NormInf() / (norm*x.NormInf() + rhs.NormInf())
}

// The target-supernode kernel computes every entry of L and D with the
// operation sequence of the column-at-a-time kernel it replaced: bit for
// bit the same factors, negative-pivot count and ErrSingular verdict, on
// the package's synthetic fixtures under every elimination order of
// sparse.Analyses and on every
// embedded system's production KKT at iterations 0, 3 and 10, as
// assembled and with an inertia correction's δ_w on its primal diagonal.
func TestLDLMatchesColumnKernel(t *testing.T) {
	t.Run("fixtures", func(t *testing.T) {
		for _, fx := range sparse.KernelFixtures(59) {
			for k, sym := range sparse.Analyses(fx.A, 59) {
				if err := sparse.MatchColumnKernel(sym, fx.A); err != nil {
					t.Errorf("%s, %s: %v", fx.Name, sparse.OrderNames[k], err)
				}
			}
		}
	})
	for _, name := range grid.Names() {
		t.Run(name, func(t *testing.T) {
			skipLargeInShort(t, name)
			kkts, nx := productionKKT(t, name, 0, 3, 10)
			sym := sparse.AnalyzeLDL(kkts[0])
			for i, m := range kkts {
				shifted := m.Clone()
				for j := 0; j < nx; j++ {
					for p := shifted.ColPtr[j]; p < shifted.ColPtr[j+1]; p++ {
						if shifted.RowIdx[p] == j {
							shifted.Val[p] += 1e-4
						}
					}
				}
				if err := sparse.MatchColumnKernel(sym, m); err != nil {
					t.Errorf("KKT %d: %v", i, err)
				}
				if err := sparse.MatchColumnKernel(sym, shifted); err != nil {
					t.Errorf("KKT %d with δ_w: %v", i, err)
				}
			}
		})
	}
}

// The bitset minimum-degree ordering gives the permutation of the
// map-based reference (order_test.go) on random patterns and on every
// embedded system's production KKT.
func TestMinDegreeMatchesReference(t *testing.T) {
	t.Run("fixtures", func(t *testing.T) {
		for _, fx := range sparse.MinDegreeFixtures(61) {
			if err := sparse.MatchMinDegree(fx.A); err != nil {
				t.Errorf("%s: %v", fx.Name, err)
			}
		}
	})
	for _, name := range grid.Names() {
		t.Run(name, func(t *testing.T) {
			skipLargeInShort(t, name)
			kkts, _ := productionKKT(t, name, 0)
			if err := sparse.MatchMinDegree(kkts[0]); err != nil {
				t.Error(err)
			}
		})
	}
}

var updateWork = flag.Bool("update-work", false, "rewrite testdata/ldl_work.txt from the current analysis")

const workPath = "testdata/ldl_work.txt"

// TestLDLWorkPinned pins the work of factoring every embedded system's
// production KKT pattern — dimension, stored entries nnz(L)+n,
// supernodes, source→destination updates and flops, all pure functions
// of the analysis — to testdata/ldl_work.txt. A change to the ordering,
// the supernode partition or the update programs shows here as a diff;
// regenerate with -update-work when that is the change's purpose.
func TestLDLWorkPinned(t *testing.T) {
	var b strings.Builder
	b.WriteString("# name n nnz(L)+n supernodes updates flops; written by go test ./internal/sparse -run TestLDLWorkPinned -update-work\n")
	for _, name := range grid.Names() {
		kkts, _ := productionKKT(t, name, 0)
		sym := sparse.AnalyzeLDL(kkts[0])
		count, _ := sym.Supernodes()
		fmt.Fprintf(&b, "%s %d %d %d %d %d\n", name, sym.N(), sym.NNZ(), count, sym.Updates(), sym.Flops())
	}
	if *updateWork {
		if err := os.WriteFile(workPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("LDLᵀ work differs from %s:\ngot:\n%swant:\n%s", workPath, got, want)
	}
}

// Factors are a pure function of the pattern and the values: two slots
// factoring one matrix hold the same bits, and a pooled slot that
// alternates between grids (case118 → case300 → case118, as a mips
// arena reused across systems does) reproduces them and, once grown,
// allocates nothing.
func TestLDLFactorsSlotIndependent(t *testing.T) {
	k118s, _ := productionKKT(t, "case118", 6)
	k300s, _ := productionKKT(t, "case300", 6)
	k118, k300 := k118s[0], k300s[0]
	c118, c300 := sparse.NewSymbolicCache(), sparse.NewSymbolicCache()
	factor := func(c *sparse.SymbolicCache, slot *sparse.FactorSlot, m *sparse.CSC) (l, d []float64) {
		t.Helper()
		f, err := c.Handle().FactorizeInto(slot, m)
		if err != nil {
			t.Fatal(err)
		}
		l, d = sparse.FactorValues(f)
		return slices.Clone(l), slices.Clone(d)
	}
	want118l, want118d := factor(c118, &sparse.FactorSlot{}, k118)
	want300l, want300d := factor(c300, &sparse.FactorSlot{}, k300)
	pooled := &sparse.FactorSlot{}
	for i, step := range []struct {
		c      *sparse.SymbolicCache
		m      *sparse.CSC
		wl, wd []float64
	}{{c118, k118, want118l, want118d}, {c300, k300, want300l, want300d}, {c118, k118, want118l, want118d}} {
		l, d := factor(step.c, pooled, step.m)
		if !slices.Equal(l, step.wl) || !slices.Equal(d, step.wd) {
			t.Fatalf("step %d: the pooled slot's factors differ from a fresh slot's", i)
		}
	}
	if sparse.RaceEnabled {
		return
	}
	h := c118.Handle()
	if n := testing.AllocsPerRun(5, func() {
		if _, err := h.FactorizeInto(pooled, k118); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FactorizeInto on the grown pooled slot allocates %v times, want 0", n)
	}
}

// A FactorSlot pooled across grids, as mips pools them, keeps the
// LDLFactors promise: once grown by case300's factorization it factors
// case30's KKT and case300's again without allocating, block workspace
// included. Mallocs are read around the two calls themselves, with no
// warm-up run to hide the first.
func TestPooledSlotAllocFree(t *testing.T) {
	if sparse.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	k300s, _ := productionKKT(t, "case300", 3)
	k30s, _ := productionKKT(t, "case30", 3)
	k300, k30 := k300s[0], k30s[0]
	h300 := sparse.NewSymbolicCache().Handle()
	h30 := sparse.NewSymbolicCache().Handle()
	factor := func(h *sparse.CacheHandle, slot *sparse.FactorSlot, m *sparse.CSC) {
		t.Helper()
		if _, err := h.FactorizeInto(slot, m); err != nil {
			t.Fatal(err)
		}
	}
	factor(h30, &sparse.FactorSlot{}, k30) // publishes case30's analysis
	pooled := &sparse.FactorSlot{}
	factor(h300, pooled, k300)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	factor(h30, pooled, k30)
	factor(h300, pooled, k300)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("the pooled slot allocated %d times factoring case30 then case300, want 0", n)
	}
}

// BenchmarkFleetRefactorKernels times the LDLᵀ factorization of the
// production KKT patterns of case118 and case300, for quick kernel
// iteration; BenchmarkLDLFactor pins its backward error and allocations
// on the production values. The values are onPattern's, stamped once per pair
// into the packed layout as mips stamps them, so the loop times the
// kernel from its input.
func BenchmarkFleetRefactorKernels(b *testing.B) {
	for _, name := range []string{"case118", "case300"} {
		kkts, nx := productionKKT(b, name, 10)
		kkt := onPattern(rand.New(rand.NewSource(47)), kkts[0], nx)
		sym := sparse.AnalyzeLDL(kkt)
		packed := make([]float64, sym.NNZ())
		for j, slots := 0, sym.Slots(kkt); j < kkt.NCols; j++ {
			for p := kkt.ColPtr[j]; p < kkt.ColPtr[j+1]; p++ {
				if kkt.RowIdx[p] >= j {
					packed[slots[p]] = kkt.Val[p]
				}
			}
		}
		f := &sparse.LDLFactors{}
		b.Run(name+"/ldl", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sym.FactorPacked(f, packed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeLDL times the whole symbolic analysis — ordering,
// elimination tree, column patterns, supernodes and update programs — of
// every embedded system's production KKT pattern, the one-off cost a
// grid pays before its first factorization. Recorded, not asserted.
func BenchmarkAnalyzeLDL(b *testing.B) {
	for _, name := range grid.Names() {
		kkts, _ := productionKKT(b, name, 0)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.AnalyzeLDL(kkts[0])
			}
		})
	}
}

// BenchmarkLDLFactor factors the production KKT matrices of case118,
// case300 and case1354 (gated by -short) at iteration 10 of a cold solve
// and enforces two invariants with b.Fatal rather than merely reporting
// them: the solve's backward error on the untouched production matrix,
// static pivot boost included, is below 1e-9, and a warm factorization
// allocates nothing. The b.N loop times the headline case300
// factorization. It writes no BENCH file: BENCH_kkt.json's ldl_kernel
// section is the committed record of its race against the LU it
// replaced.
func BenchmarkLDLFactor(b *testing.B) {
	var timed *sparse.CSC
	for _, name := range []string{"case118", "case300", "case1354"} {
		if testing.Short() && name == "case1354" {
			continue
		}
		kkts, _ := productionKKT(b, name, 10)
		kkt := kkts[0]
		sym, f := sparse.AnalyzeLDL(kkt), &sparse.LDLFactors{}
		if err := sym.FactorInto(f, kkt); err != nil {
			b.Fatalf("%s: LDLᵀ of the production matrix: %v", name, err)
		}
		r := rand.New(rand.NewSource(42))
		rhs := make(la.Vector, kkt.NRows)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		x := make(la.Vector, kkt.NRows)
		f.SolveInto(x, rhs, make(la.Vector, kkt.NRows))
		if be := backwardError(kkt, x, rhs); be > 1e-9 {
			b.Fatalf("%s: LDLᵀ backward error %.3g on the production matrix, want ≤ 1e-9", name, be)
		}
		if allocs := testing.AllocsPerRun(3, func() {
			if err := sym.FactorInto(f, kkt); err != nil {
				b.Fatal(err)
			}
		}); allocs != 0 {
			b.Fatalf("%s: warm factorization allocates %.0f times", name, allocs)
		}
		if name == "case300" {
			timed = kkt
		}
	}
	sym, f := sparse.AnalyzeLDL(timed), &sparse.LDLFactors{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sym.FactorInto(f, timed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKKTFactor times the two halves of the symbolic/numeric split
// on case14's production KKT matrix at the default start: a fresh LDLᵀ
// analysis (minimum-degree ordering, elimination tree, supernodes) plus
// factorization, versus a numeric refactorization on the cached
// analysis. The first invocation also writes BENCH_kkt.json (see
// writeKKTBenchReport).
func BenchmarkKKTFactor(b *testing.B) {
	kkts, _ := productionKKT(b, "case14", 0)
	kkt := kkts[0]
	kktReportOnce.Do(func() { writeKKTBenchReport(b, kkt) })
	b.Run("analyze", func(b *testing.B) {
		f := &sparse.LDLFactors{}
		for i := 0; i < b.N; i++ {
			if err := sparse.AnalyzeLDL(kkt).FactorInto(f, kkt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refactor", func(b *testing.B) {
		sym, f := sparse.AnalyzeLDL(kkt), &sparse.LDLFactors{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sym.FactorInto(f, kkt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var kktReportOnce sync.Once

// writeKKTBenchReport self-times, over fixed repetition counts
// (independent of -benchtime), the analyze and refactor halves on kkt
// and a cold case14 solve at 1.03× load through the grid's shared KKT
// cache (opf's BenchmarkColdSolve/case14 times the same solve), and
// merges them with productionFill into the repository-root
// BENCH_kkt.json (see mergeKKTReport), the machine-readable record
// PERFORMANCE.md documents.
func writeKKTBenchReport(b *testing.B, kkt *sparse.CSC) {
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
	f := &sparse.LDLFactors{}
	analyzeNs := timeIt(facReps, func() error { return sparse.AnalyzeLDL(kkt).FactorInto(f, kkt) })
	sym := sparse.AnalyzeLDL(kkt)
	refactorNs := timeIt(facReps, func() error { return sym.FactorInto(f, kkt) })

	base := opf.Prepare(grid.Case14())
	fac := make([]float64, base.Case.NB())
	for i := range fac {
		fac[i] = 1.03
	}
	const solveReps = 10
	solveNs := timeIt(solveReps, func() error {
		_, err := base.Perturb(fac).Solve(nil, opf.Options{})
		return err
	})

	mergeKKTReport(b, map[string]any{
		"benchmark":   "kkt-symbolic-reuse",
		"produced_by": "go test -run '^$' -bench KKTFactor -benchtime 1x ./internal/sparse (self-timed section; see PERFORMANCE.md)",
		"case":        "case14",
		"kkt_n":       kkt.NRows,
		"kkt_nnz":     len(kkt.Val),
		"entries": []map[string]any{
			{"name": "KKTFactor/analyze", "ns_per_op": analyzeNs, "ops": facReps},
			{"name": "KKTFactor/refactor", "ns_per_op": refactorNs, "ops": facReps},
			{"name": "ColdSolve/case14", "ns_per_op": solveNs, "ops": solveReps},
		},
		"speedup_refactor_vs_analyze": analyzeNs / refactorNs,
		"production_fill":             productionFill(b),
	})
	fmt.Printf("BENCH_kkt.json: refactor %.1fx faster than analyze, cold case14 solve %.2f ms\n",
		analyzeNs/refactorNs, solveNs/1e6)
}

// productionFill is the "production_fill" section of BENCH_kkt.json:
// per embedded system (case1354 gated by -short), the reduced KKT
// system MIPS factors — dimension NX + NEq — at the default start, and
// its LDLᵀ analysis under minimum degree: nnz(L)+n, 2·(nnz(L)+n), the
// L+U of an LU of the same elimination, which is what the KKT path
// stored before the LDLᵀ, and the floating-point operations of one
// factorization. The *_rcm columns on disk are history, kept by
// mergeKKTReport: reverse Cuthill–McKee's fill before it was deleted,
// which opf's TestKKTOrderingFill holds minimum degree below.
// RESULTS.md "KKT fill by ordering" renders the section.
func productionFill(b *testing.B) map[string]any {
	systems := map[string]any{}
	for _, name := range grid.Names() {
		if testing.Short() && name == "case1354" {
			continue // on-disk row preserved by mergeKKTReport
		}
		kkts, _ := productionKKT(b, name, 0)
		sym := sparse.AnalyzeLDL(kkts[0])
		systems[name] = map[string]any{
			"kkt_n": sym.N(), "kkt_nnz": sym.PatternNNZ(),
			"ldl_nnz_mindegree": sym.NNZ(), "lu_nnz_mindegree": 2 * sym.NNZ(), "flops_mindegree": sym.Flops(),
		}
	}
	return map[string]any{
		"pattern": "reduced KKT system at the default start, as a mips.Stepper assembles it, LDLᵀ analysis (sparse.AnalyzeLDL); " +
			"ldl_nnz = nnz(L)+n, lu_nnz = 2·(nnz(L)+n), the L+U of the same elimination, flops = LDLSymbolic.Flops(); " +
			"the *_rcm columns are reverse Cuthill–McKee's, recorded before it was deleted",
		"systems": systems,
	}
}

// mergeKKTReport read-modify-writes the repository-root BENCH_kkt.json:
// the given keys overwrite their own top-level entries and everything
// else already on disk is kept, so the sections nothing writes any more
// — the ldl_kernel race against the deleted LU, the LU fill_by_ordering
// — stay as history. Within a section, per-system rows already on disk
// survive a run that measured fewer systems (a -short run keeps the
// case1354 row), and within a row the columns a run no longer measures
// (production_fill's *_rcm) survive beside the fresh ones.
func mergeKKTReport(b *testing.B, sections map[string]any) {
	path := filepath.Join("..", "..", "BENCH_kkt.json")
	report := map[string]any{}
	if buf, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(buf, &report) // a corrupt or absent file is rebuilt from this run
	}
	for k, v := range sections {
		newSec, _ := v.(map[string]any)
		oldSec, _ := report[k].(map[string]any)
		newSys, okNew := newSec["systems"].(map[string]any)
		oldSys, okOld := oldSec["systems"].(map[string]any)
		if okNew && okOld {
			for name, row := range oldSys {
				fresh, ok := newSys[name].(map[string]any)
				if !ok {
					newSys[name] = row
					continue
				}
				for col, v := range row.(map[string]any) {
					if _, measured := fresh[col]; !measured {
						fresh[col] = v
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
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
