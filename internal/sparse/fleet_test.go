package sparse_test

// The embedded-fleet half of the LDLᵀ kernel tests: the reduced KKT
// matrices MIPS really factors, assembled by a mips.Stepper at real
// interior-point iterates of every embedded system. Random-pattern and
// fuzz coverage live in ldl_test.go (package sparse).

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/casegen"
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
	c, err := casegen.Paper(name)
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
	for _, name := range casegen.EmbeddedNames() {
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
	for _, name := range casegen.EmbeddedNames() {
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
	for _, name := range casegen.EmbeddedNames() {
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
	for _, name := range casegen.EmbeddedNames() {
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
// iteration; the root-level BenchmarkLDLFactor pins its backward error
// and allocations. The values are onPattern's, stamped once per pair
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
	for _, name := range casegen.EmbeddedNames() {
		kkts, _ := productionKKT(b, name, 0)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.AnalyzeLDL(kkts[0])
			}
		})
	}
}
