package sparse

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

// randPatternPair builds two matrices with an identical sparsity pattern
// (same structural entries, duplicates included) but independent values.
func randPatternPair(r *rand.Rand, n int) (*CSC, *CSC) {
	type pos struct{ i, j int }
	var ps []pos
	for i := 0; i < n; i++ {
		ps = append(ps, pos{i, i})
		for k := 0; k < 3; k++ {
			ps = append(ps, pos{i, r.Intn(n)})
		}
	}
	build := func() *CSC {
		b := NewBuilder(n, n)
		for _, p := range ps {
			v := r.NormFloat64()
			if p.i == p.j {
				v = 5 + r.Float64()*5 // keep both diagonally dominant
			}
			b.Append(p.i, p.j, v)
		}
		return b.ToCSC()
	}
	return build(), build()
}

// Factoring the analyzed matrix again must reproduce its first
// factorization bit for bit — on factors that held another matrix in
// between, and on a second analysis of the same pattern: the factors are
// a function of the pattern and the values alone.
func TestRefactorSameMatrixBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(40)
		a, _ := randQuasiDefSystem(r, n)
		sym := AnalyzeLDL(a)
		f0, err := factorLDL(sym, a)
		if err != nil {
			t.Fatal(err)
		}
		f1, err := factorLDL(AnalyzeLDL(a), withFreshValues(r, a))
		if err != nil {
			t.Fatal(err)
		}
		if err := f1.sym.FactorInto(f1, a); err != nil {
			t.Fatal(err)
		}
		rhs := make(la.Vector, n)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		x0, x1 := solve(f0, rhs), solve(f1, rhs)
		for i := range x0 {
			if x0[i] != x1[i] {
				t.Fatalf("trial %d: refactor solve differs at %d: %v != %v", trial, i, x0[i], x1[i])
			}
		}
	}
}

// The symbolic-reuse path on new numeric values must agree with the
// dense reference solver: analyze one matrix, factor a second with the
// same pattern — unsymmetric, with duplicate entries, so what is
// factored is its symmetric part (A+Aᵀ)/2 — under every elimination
// order of testAnalyses, and check the solve against la.Solve of that
// symmetric part.
func TestRefactorAgainstDenseReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(50)
		a1, a2 := randPatternPair(r, n)
		rhs := make(la.Vector, n)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		xd, err := la.Solve(symmetrize(a2).ToDense(), rhs)
		if err != nil {
			return false
		}
		for _, sym := range testAnalyses(a1, seed) {
			fac, err := factorLDL(sym, a2)
			if err != nil {
				return false
			}
			if solve(fac, rhs).AddScaled(-1, xd).NormInf() > 1e-9*(1+xd.NormInf()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRefactorRejectsPatternChange(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Append(0, 0, 2)
	b.Append(1, 1, 3)
	sym := AnalyzeLDL(b.ToCSC())
	b2 := NewBuilder(2, 2)
	b2.Append(0, 0, 2)
	b2.Append(1, 0, 1)
	b2.Append(1, 1, 3)
	if _, err := factorLDL(sym, b2.ToCSC()); err != ErrPatternChanged {
		t.Fatalf("want ErrPatternChanged, got %v", err)
	}
}

// Property: every elimination order of testAnalyses — minimum degree's
// included — is a permutation of the columns, and a factorization under
// it solves the system (a round trip through the permutation and its
// inverse application in Solve).
func TestOrderingPermutationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		a, x := randQuasiDefSystem(r, n)
		rhs := a.MulVec(x)
		for _, sym := range testAnalyses(a, seed) {
			if len(sym.q) != n {
				return false
			}
			seen := make([]bool, n)
			for _, v := range sym.q {
				if v < 0 || v >= n || seen[v] {
					return false
				}
				seen[v] = true
			}
			fac, err := factorLDL(sym, a)
			if err != nil {
				return false
			}
			if solve(fac, rhs).AddScaled(-1, x).NormInf() > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMinDegreeReducesFill(t *testing.T) {
	// A randomly permuted 2D Laplacian: minimum degree should produce
	// far less fill than the natural order of the shuffled matrix.
	side := 12
	n := side * side
	r := rand.New(rand.NewSource(9))
	perm := r.Perm(n)
	b := NewBuilder(n, n)
	at := func(i, j int) int { return perm[i*side+j] }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			b.Append(at(i, j), at(i, j), 4)
			if i+1 < side {
				b.Append(at(i, j), at(i+1, j), -1)
				b.Append(at(i+1, j), at(i, j), -1)
			}
			if j+1 < side {
				b.Append(at(i, j), at(i, j+1), -1)
				b.Append(at(i, j+1), at(i, j), -1)
			}
		}
	}
	a := b.ToCSC()
	natural, md := analyzeLDLPerm(a, naturalOrder(n)), AnalyzeLDL(a)
	if md.NNZ() >= natural.NNZ() {
		t.Fatalf("minimum-degree nnz(L)+n %d >= natural %d", md.NNZ(), natural.NNZ())
	}
}

func TestSymbolicCacheReuseAndStats(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a1, a2 := randQuasiDefPair(r, 30)
	c := NewSymbolicCache()
	h, slot := c.Handle(), &FactorSlot{}
	for _, m := range []*CSC{a1, a2, a1} {
		if _, err := h.FactorizeInto(slot, m); err != nil {
			t.Fatal(err)
		}
	}
	// The analysis is the cache's, counted there at once; the refactors
	// are the handle's until it closes.
	if st, want := h.stats, (CacheStats{Refactors: 2}); st != want {
		t.Fatalf("handle stats = %+v, want %+v", st, want)
	}
	h.Close()
	if st, want := c.Stats(), (CacheStats{Analyses: 1, Refactors: 2, Orderings: 1}); st != want {
		t.Fatalf("cache stats = %+v, want %+v", st, want)
	}
	if sym := c.Symbolic(); sym == nil || !sym.pat.matches(a1) || sym.PatternNNZ() != len(a1.Val) {
		t.Fatal("the cache should publish the analysis of the first pattern it met")
	}
}

// A cache holds one pattern. A matrix of another pattern arriving at a
// cache that already holds one is factored correctly on an analysis the
// handle makes for itself — counted, never published — and neither the
// published entry nor any handle's reuse of it is disturbed, whether the
// handles run one after another or concurrently (the -race job).
func TestSymbolicCacheSecondPatternStaysPrivate(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	a1, a2 := randQuasiDefPair(r, 30)
	other, x := randQuasiDefSystem(r, 31)
	rhs := other.MulVec(x)

	c := NewSymbolicCache()
	h0 := c.Handle()
	if _, err := h0.FactorizeInto(&FactorSlot{}, a1); err != nil {
		t.Fatal(err)
	}
	h0.Close()
	pub := c.Symbolic()
	if pub == nil || !pub.pat.matches(a1) {
		t.Fatal("first pattern not published")
	}

	const streams = 4
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, slot := c.Handle(), &FactorSlot{}
			defer h.Close()
			// shared, private (analyzed), shared, private (refactored)
			for i, m := range []*CSC{a2, other, a1, other} {
				f, err := h.FactorizeInto(slot, m)
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 1 {
					if d := solve(f, rhs).AddScaled(-1, x).NormInf(); d > 1e-8 {
						t.Errorf("second-pattern solve off by %g", d)
					}
				}
			}
			if h.lookup(a1) != pub || h.own == nil || !h.own.pat.matches(other) {
				t.Error("handle should reuse the published entry and keep the second pattern for itself")
			}
			if want := (CacheStats{Analyses: 1, Refactors: 3, Orderings: 1}); h.stats != want {
				t.Errorf("stream stats = %+v, want %+v", h.stats, want)
			}
		}()
	}
	wg.Wait()
	if c.Symbolic() != pub {
		t.Fatal("a second pattern replaced the published analysis")
	}
	if st, want := c.Stats(), (CacheStats{Analyses: 1 + streams, Refactors: 3 * streams, Orderings: 1 + streams}); st != want {
		t.Fatalf("cache stats = %+v, want %+v", st, want)
	}
	// A later handle still finds the first pattern analyzed.
	h := c.Handle()
	if _, err := h.FactorizeInto(&FactorSlot{}, a2); err != nil {
		t.Fatal(err)
	}
	if want := (CacheStats{Refactors: 1}); h.stats != want {
		t.Fatalf("later handle stats = %+v, want pure reuse %+v", h.stats, want)
	}
}

// A handle takes a matrix that comes back with the arrays it last
// factored as that pattern without comparing it; a matrix with equal
// but distinct arrays is compared, matched and remembered in their
// place, and factors to the same bits.
func TestHandleRemembersLastPatternArrays(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	a1, a2 := randQuasiDefPair(r, 30)
	twin := &CSC{NRows: a1.NRows, NCols: a1.NCols, ColPtr: slices.Clone(a1.ColPtr), RowIdx: slices.Clone(a1.RowIdx), Val: a1.Val}
	h, slot := NewSymbolicCache().Handle(), &FactorSlot{}
	var bits [][]float64
	for i, m := range []*CSC{a1, a1, a2, twin} {
		f, err := h.FactorizeInto(slot, m)
		if err != nil {
			t.Fatal(err)
		}
		if !sameArray(h.lastColPtr, m.ColPtr) || !sameArray(h.lastRowIdx, m.RowIdx) || h.last != h.c.Symbolic() {
			t.Fatalf("factorization %d: the handle does not remember the matrix it factored", i)
		}
		bits = append(bits, append(slices.Clone(f.lx), f.d...))
	}
	if !slices.Equal(bits[0], bits[1]) || !slices.Equal(bits[0], bits[3]) {
		t.Fatal("the same values factored to different bits")
	}
	if want := (CacheStats{Refactors: 3}); h.stats != want {
		t.Fatalf("handle stats = %+v, want %+v", h.stats, want)
	}
}

// A factorization whose column collapses is rejected, not repaired: the
// handle returns ErrSingular and counts a fallback, the published
// analysis stays (there is nothing value-derived to redo), and the next
// matrix factors on it as a plain refactorization.
func TestSymbolicCacheUnstableFallback(t *testing.T) {
	c := NewSymbolicCache()
	h := c.Handle()
	if _, err := h.FactorizeInto(&FactorSlot{}, collapsing(7, 1.3)); !errors.Is(err, ErrSingular) {
		t.Fatalf("collapsed column: %v, want ErrSingular", err)
	}
	pub := c.Symbolic()
	if st, want := h.stats, (CacheStats{Fallbacks: 1}); st != want || pub == nil {
		t.Fatalf("handle stats = %+v, want %+v and the analysis published", st, want)
	}
	good := collapsing(7, 1.3)
	good.Val[3] += 1
	fac, err := h.FactorizeInto(&FactorSlot{}, good)
	if err != nil {
		t.Fatal(err)
	}
	x := solve(fac, la.Vector{1, 2})
	if res := good.MulVec(x).AddScaled(-1, la.Vector{1, 2}).NormInf(); res > 1e-9 {
		t.Fatalf("solve residual %v", res)
	}
	h.Close()
	if st, want := c.Stats(), (CacheStats{Analyses: 1, Refactors: 1, Fallbacks: 1, Orderings: 1}); st != want || c.Symbolic() != pub || h.own != nil {
		t.Fatalf("cache stats = %+v, want %+v on the one published analysis", st, want)
	}
}

func TestSymbolicCacheSingular(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Append(0, 0, 1)
	b.Append(0, 1, 2)
	b.Append(1, 0, 2)
	b.Append(1, 1, 4) // rank 1
	c := NewSymbolicCache()
	h := c.Handle()
	if _, err := h.FactorizeInto(&FactorSlot{}, b.ToCSC()); err == nil {
		t.Fatal("expected singular error")
	}
	h.Close()
	// The analysis is made from the pattern; the values reject it.
	if st, want := c.Stats(), (CacheStats{Analyses: 1, Fallbacks: 1, Orderings: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// The analysis of a pattern — permutation and elimination structure — is
// computed once per cache however many solves go through it, and counted
// there as it is made; the cache's other counters are the sum over closed
// handles.
func TestSymbolicCachePermsAndAggregation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a1, a2 := randQuasiDefPair(r, 25)
	c := NewSymbolicCache()
	h1, h2 := c.Handle(), c.Handle()
	if _, err := h1.FactorizeInto(&FactorSlot{}, a1); err != nil {
		t.Fatal(err)
	}
	slot := &FactorSlot{}
	for _, m := range []*CSC{a2, a2} { // same pattern -> the cached analysis
		if _, err := h2.FactorizeInto(slot, m); err != nil {
			t.Fatal(err)
		}
	}
	if h1.lookup(a1) != h2.lookup(a2) || c.Symbolic() != slot.f.sym {
		t.Fatal("same pattern should use the one cached symbolic and its permutation")
	}
	if st, want := c.Stats(), (CacheStats{Analyses: 1, Orderings: 1}); st != want {
		t.Fatalf("stats with the handles open = %+v, want the analysis alone %+v", st, want)
	}
	h1.Close()
	h2.Close()
	h2.Close() // adds nothing the second time
	if st, want := c.Stats(), (CacheStats{Analyses: 1, Refactors: 2, Orderings: 1}); st != want {
		t.Fatalf("aggregated stats = %+v, want %+v", st, want)
	}
}

// The name is what CLI reports print and BENCH_kkt.json keys are built
// from (ldl_nnz_mindegree), and OrderMinDegree is the ordering of a
// zero-valued mips.Options.
func TestOrderingNames(t *testing.T) {
	if got := OrderMinDegree.String(); got != "mindegree" {
		t.Errorf("OrderMinDegree.String() = %q, want %q", got, "mindegree")
	}
	var zero Ordering
	if zero != OrderMinDegree {
		t.Fatal("OrderMinDegree must stay the zero value: it is the ordering of zero-valued Options")
	}
}

func TestRefactorSingularValues(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a, _ := randQuasiDefSystem(r, 12)
	sym := AnalyzeLDL(a)
	zero := a.Clone()
	for i := range zero.Val {
		zero.Val[i] = 0
	}
	if _, err := factorLDL(sym, zero); !errors.Is(err, ErrSingular) {
		t.Fatalf("all-zero values: %v, want ErrSingular", err)
	}
	nan := a.Clone()
	nan.Val[0] = math.NaN()
	if _, err := factorLDL(sym, nan); !errors.Is(err, ErrSingular) {
		t.Fatalf("NaN values: %v, want ErrSingular", err)
	}
}

// The cache keeps its pattern-derived diagonal pivot sequence when a
// value collapses a pivot, applying the static pivot perturbation
// instead of re-analyzing — through the handle exactly as through the
// kernel called directly on the cached analysis, and without counting a
// fallback.
func TestShapedFactorizeMatchesFactorizeIntoUnderBoost(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Append(0, 0, 1e-14) // diagonal pivot, far below boostPivotRel of its column
	b.Append(0, 1, 1)
	b.Append(1, 0, 1)
	b.Append(1, 1, 3)
	weak := b.ToCSC()

	c := NewSymbolicCache()
	h := c.Handle()
	f2, err := h.FactorizeInto(&FactorSlot{}, weak)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := factorLDL(c.Symbolic(), weak)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f1.lx, f2.lx) || !slices.Equal(f1.d, f2.d) || f1.sym != f2.sym {
		t.Fatalf("FactorInto and FactorizeInto diverge on a boosted pivot:\n L %v vs %v\n D %v vs %v", f1.lx, f2.lx, f1.d, f2.d)
	}
	if got, want := f1.d[0], boostPivotRel; got != want {
		t.Fatalf("pivot (0,0) = %v, want the perturbed %v", got, want)
	}
	h.Close()
	if st, want := c.Stats(), (CacheStats{Analyses: 1, Orderings: 1}); st != want {
		t.Fatalf("stats = %+v, want the analysis alone (boost, no fallback)", st)
	}
}

// A derived cache has its own counters and embeds its patterns in its
// root's analysis. The one pattern it embeds is the root's own (an outage
// class keeps the intact KKT pattern): root and derived handles factor it
// on one Symbolic, made and counted on the root by whichever handle
// factors first — once, however many first handles race — and a reused
// slot solves as a from-scratch factorization does.
func TestDerivedCacheEmbedsSubPattern(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	a1, a2 := randQuasiDefPair(r, 30)
	x := make(la.Vector, 30)
	for i := range x {
		x[i] = r.NormFloat64()
	}

	for _, derivedFirst := range []bool{true, false} {
		root := NewSymbolicCache()
		der := root.Derive().Derive() // a chain resolves to the root
		if der.root != root {
			t.Fatal("a chain of derived caches resolves to the root")
		}
		rh, dh := root.Handle(), der.Handle()
		order := []*CacheHandle{rh, dh}
		if derivedFirst {
			order = []*CacheHandle{dh, rh}
		}
		slot := &FactorSlot{}
		for _, h := range order {
			for _, m := range []*CSC{a1, a2} {
				fac, err := h.FactorizeInto(slot, m)
				if err != nil {
					t.Fatal(err)
				}
				if d := solve(fac, m.MulVec(x)).AddScaled(-1, x).NormInf(); d > 1e-9 {
					t.Fatalf("derived first %v: solve through the reused slot is off by %g", derivedFirst, d)
				}
			}
		}
		if rh.lookup(a1) != dh.lookup(a2) || der.Symbolic() != root.Symbolic() || root.Symbolic() == nil {
			t.Fatalf("derived first %v: root and derived handles should share one Symbolic", derivedFirst)
		}
		rh.Close()
		dh.Close()
		// Four factorizations: the one that made the analysis, three refactors.
		rs, ds := root.Stats(), der.Stats()
		if rs.Analyses != 1 || rs.Orderings != 1 || ds.Analyses != 0 || ds.Orderings != 0 || rs.Refactors+ds.Refactors != 3 {
			t.Fatalf("derived first %v: root stats %+v, derived %+v; want the analysis on the root", derivedFirst, rs, ds)
		}
	}

	// Concurrent first handles of a root and of its derivations: one
	// analysis, on the root (the -race job runs this repeatedly).
	root := NewSymbolicCache()
	const streams = 6
	syms := make([]*LDLSymbolic, streams)
	ders := make([]*SymbolicCache, streams)
	var wg sync.WaitGroup
	for g := range streams {
		ders[g] = root
		if g%2 == 1 {
			ders[g] = root.Derive()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := ders[g].Handle()
			defer h.Close()
			if _, err := h.FactorizeInto(&FactorSlot{}, a1); err != nil {
				t.Error(err)
			}
			syms[g] = h.lookup(a1)
		}()
	}
	wg.Wait()
	var derived CacheStats
	for g := range streams {
		if syms[g] != root.Symbolic() {
			t.Fatalf("stream %d factored on another analysis than the root's", g)
		}
		if g%2 == 1 {
			derived = derived.Add(ders[g].Stats())
		}
	}
	if st := root.Stats(); st.Analyses != 1 || st.Orderings != 1 || derived.Analyses != 0 || derived.Orderings != 0 {
		t.Fatalf("racing first handles: root %+v, derivations %+v, want one analysis on the root", st, derived)
	}
}

// A pattern other than the root's — of the same dimension or another —
// is analyzed privately by the handle that meets it, bit-identical to a
// fresh cache's factors, and leaves the root's analysis alone.
func TestDerivedCacheAnalyzesUncontainedPattern(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	full, _ := randQuasiDefSystem(r, 30)
	root := NewSymbolicCache()
	if _, err := root.Handle().FactorizeInto(&FactorSlot{}, full); err != nil {
		t.Fatal(err)
	}
	pub := root.Symbolic()
	if pub == nil {
		t.Fatal("the root should publish the analysis of the first pattern it met")
	}

	check := func(name string, a *CSC, x la.Vector) {
		t.Helper()
		h := root.Derive().Handle()
		f, err := h.FactorizeInto(&FactorSlot{}, a)
		if err != nil {
			t.Fatal(err)
		}
		if st, want := h.stats, (CacheStats{Analyses: 1, Orderings: 1}); st != want || h.own == nil || h.own == pub || root.Symbolic() != pub {
			t.Fatalf("%s: stats %+v, want a private analysis %+v that leaves the root's in place", name, st, want)
		}
		w, err := NewSymbolicCache().Handle().FactorizeInto(&FactorSlot{}, a)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(f.lx, w.lx) || !slices.Equal(f.d, w.d) || !slices.Equal(f.sym.li, w.sym.li) ||
			!slices.Equal(f.sym.q, w.sym.q) {
			t.Fatalf("%s: factors differ from a fresh cache's", name)
		}
		if d := solve(f, a.MulVec(x)).AddScaled(-1, x).NormInf(); d > 1e-8 {
			t.Fatalf("%s: solve off by %g", name, d)
		}
	}
	same, x := randQuasiDefSystem(r, 30)
	check("other pattern", same, x)
	wider, y := randQuasiDefSystem(r, 31)
	check("other dimension", wider, y)
}
