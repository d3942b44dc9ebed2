package sparse

import (
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

// Refactoring the analyzed matrix itself must reproduce the analyzing
// factorization bit for bit: same elimination sequence, same arithmetic.
func TestRefactorSameMatrixBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(40)
		a, _ := randSparseSystem(r, n)
		sym, f0, err := Analyze(a, OrderRCM, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		f1, err := refactor(sym, a)
		if err != nil {
			t.Fatal(err)
		}
		rhs := make(la.Vector, n)
		for i := range rhs {
			rhs[i] = r.NormFloat64()
		}
		x0, x1 := f0.Solve(rhs), f1.Solve(rhs)
		for i := range x0 {
			if x0[i] != x1[i] {
				t.Fatalf("trial %d: refactor solve differs at %d: %v != %v", trial, i, x0[i], x1[i])
			}
		}
	}
}

// The symbolic-reuse path on new numeric values must agree with the
// dense reference solver: analyze one matrix, refactor a second with the
// same pattern, and check the refactored solve against la.Solve.
func TestRefactorAgainstDenseReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(50)
		a1, a2 := randPatternPair(r, n)
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD} {
			sym, _, err := Analyze(a1, ord, 1.0)
			if err != nil {
				return false
			}
			fac, err := refactor(sym, a2)
			if err != nil {
				return false
			}
			rhs := make(la.Vector, n)
			for i := range rhs {
				rhs[i] = r.NormFloat64()
			}
			xs := fac.Solve(rhs)
			xd, err := la.Solve(a2.ToDense(), rhs)
			if err != nil {
				return false
			}
			if xs.Clone().Sub(xd).NormInf() > 1e-8 {
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
	sym, _, err := Analyze(b.ToCSC(), OrderNatural, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBuilder(2, 2)
	b2.Append(0, 0, 2)
	b2.Append(1, 0, 1)
	b2.Append(1, 1, 3)
	if _, err := refactor(sym, b2.ToCSC()); err != ErrPatternChanged {
		t.Fatalf("want ErrPatternChanged, got %v", err)
	}
}

// Property: every ordering yields a valid permutation of the columns, and
// a factorization under it solves the system (round trip through the
// permutation and its inverse application in Solve).
func TestOrderingPermutationRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(50)
		a, x := randSparseSystem(r, n)
		rhs := a.MulVec(x)
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD} {
			q := permFor(a, ord)
			if len(q) != n {
				return false
			}
			seen := make([]bool, n)
			for _, v := range q {
				if v < 0 || v >= n || seen[v] {
					return false
				}
				seen[v] = true
			}
			fac, err := FactorizePerm(a, q, 1.0)
			if err != nil {
				return false
			}
			if fac.Solve(rhs).Sub(x).NormInf() > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAMDReducesFill(t *testing.T) {
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
	fn, err := FactorizeOpts(a, OrderNatural, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := FactorizeOpts(a, OrderAMD, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if fa.NNZ() >= fn.NNZ() {
		t.Fatalf("AMD fill %d >= natural fill %d", fa.NNZ(), fn.NNZ())
	}
}

func TestSymbolicCacheReuseAndStats(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a1, a2 := randPatternPair(r, 30)
	c := NewSymbolicCache(OrderRCM)
	h, slot := c.Handle(), &FactorSlot{}
	for _, m := range []*CSC{a1, a2, a1} {
		if _, err := h.FactorizeInto(slot, m); err != nil {
			t.Fatal(err)
		}
	}
	if st, want := h.stats, (CacheStats{Analyses: 1, Refactors: 2, Orderings: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if sym := c.Symbolic(); sym == nil || !sym.PatternMatches(a1) || sym.PatternNNZ() != a1.NNZ() {
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
	a1, a2 := randPatternPair(r, 30)
	other, x := randSparseSystem(r, 31)
	rhs := other.MulVec(x)

	c := NewSymbolicCache(OrderAMD)
	h0 := c.Handle()
	if _, err := h0.FactorizeInto(&FactorSlot{}, a1); err != nil {
		t.Fatal(err)
	}
	h0.Close()
	pub := c.entry.Load()
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
					if d := f.Solve(rhs).Sub(x).NormInf(); d > 1e-8 {
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
	if c.entry.Load() != pub {
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

// A value-pivoted sequence exists only inside a handle, as the
// replacement for shaped pivots its values rejected. When new values
// make one of its frozen pivots collapse, the handle must notice and
// fall back to a fresh analysis that re-picks pivots — still return a
// correct factorization, and still publish nothing value-derived.
func TestSymbolicCacheUnstableFallback(t *testing.T) {
	build := func(d float64) *CSC {
		b := NewBuilder(2, 2)
		b.Append(0, 0, d)
		b.Append(0, 1, 1)
		b.Append(1, 0, 1)
		b.Append(1, 1, d)
		return b.ToCSC()
	}
	sym, _, err := Analyze(build(2), OrderNatural, 1.0) // freezes diagonal pivots
	if err != nil {
		t.Fatal(err)
	}
	c := NewSymbolicCache(OrderNatural)
	h := c.Handle()
	h.own = analysisOf(sym)
	weak := build(1e-14) // frozen (0,0) pivot is 1e-14 vs candidate 1
	fac, err := h.FactorizeInto(&FactorSlot{}, weak)
	if err != nil {
		t.Fatal(err)
	}
	x := fac.Solve(la.Vector{1, 2})
	res := weak.MulVec(x).Sub(la.Vector{1, 2})
	if res.NormInf() > 1e-9 {
		t.Fatalf("fallback solve residual %v", res.NormInf())
	}
	if st, want := h.stats, (CacheStats{Analyses: 1, Fallbacks: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if h.own.sym == sym || c.entry.Load() != nil {
		t.Fatal("want the re-analysis to replace the stale sequence in the handle and stay out of the cache")
	}
}

func TestSymbolicCacheSingular(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Append(0, 0, 1)
	b.Append(0, 1, 2)
	b.Append(1, 0, 2)
	b.Append(1, 1, 4) // rank 1
	h := NewSymbolicCache(OrderRCM).Handle()
	if _, err := h.FactorizeInto(&FactorSlot{}, b.ToCSC()); err == nil {
		t.Fatal("expected singular error")
	}
	// The shaped sequence was rejected and value pivoting failed too.
	if st, want := h.stats, (CacheStats{Analyses: 1, Fallbacks: 1, Orderings: 1}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// The analysis of a pattern — permutation and shaped symbolic — is
// computed once per cache however many solves go through it, and the
// cache's counters are the sum over closed handles.
func TestSymbolicCachePermsAndAggregation(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a1, a2 := randPatternPair(r, 25)
	c := NewSymbolicCache(OrderAMD)
	if c.Ordering() != OrderAMD {
		t.Fatalf("ordering = %v", c.Ordering())
	}
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
	if h1.lookup(a1) != h2.lookup(a2) || &c.Symbolic().q[0] != &slot.f.q[0] {
		t.Fatal("same pattern should use the one cached symbolic and its permutation")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("open handles already counted: %+v", st)
	}
	h1.Close()
	h2.Close()
	h2.Close() // adds nothing the second time
	if st, want := c.Stats(), (CacheStats{Analyses: 1, Refactors: 2, Orderings: 1}); st != want {
		t.Fatalf("aggregated stats = %+v, want %+v", st, want)
	}
}

// The names are what CLI reports print and BENCH_kkt.json keys are built
// from (lu_nnz_rcm, lu_nnz_amd), and OrderRCM is the ordering of a
// zero-valued mips.Options.
func TestOrderingNames(t *testing.T) {
	for ord, want := range map[Ordering]string{OrderNatural: "natural", OrderRCM: "rcm", OrderAMD: "amd"} {
		if got := ord.String(); got != want {
			t.Errorf("Ordering(%d).String() = %q, want %q", int(ord), got, want)
		}
	}
	if OrderRCM != 0 {
		t.Fatal("OrderRCM must stay the zero value: it is the default ordering of zero-valued Options")
	}
}

func TestRefactorSingularValues(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	a, _ := randSparseSystem(r, 12)
	sym, _, err := Analyze(a, OrderRCM, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	zero := a.Clone()
	for i := range zero.Val {
		zero.Val[i] = 0
	}
	if _, err := refactor(sym, zero); err == nil {
		t.Fatal("expected singular error for all-zero values")
	}
	nan := a.Clone()
	nan.Val[0] = math.NaN()
	if _, err := refactor(sym, nan); err == nil {
		t.Fatal("expected error for NaN values")
	}
}

// The cache keeps its pattern-derived diagonal pivot sequence when a
// value collapses a pivot, applying the static pivot perturbation
// instead of re-analyzing — through the handle exactly as through the
// kernel called directly on the cached symbolic, and without counting a
// fallback.
func TestShapedFactorizeMatchesFactorizeIntoUnderBoost(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Append(0, 0, 1e-14) // shaped pivot, far below boostPivotRel of its column
	b.Append(0, 1, 1)
	b.Append(1, 0, 1)
	b.Append(1, 1, 3)
	weak := b.ToCSC()

	c := NewSymbolicCache(OrderNatural)
	h := c.Handle()
	f2, err := h.FactorizeInto(&FactorSlot{}, weak)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := refactor(c.Symbolic(), weak)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f1.lx, f2.lx) || !slices.Equal(f1.ux, f2.ux) ||
		!slices.Equal(f1.li, f2.li) || !slices.Equal(f1.ui, f2.ui) || !slices.Equal(f1.pinv, f2.pinv) {
		t.Fatalf("RefactorInto and FactorizeInto diverge on a boosted pivot:\n L %v vs %v\n U %v vs %v", f1.lx, f2.lx, f1.ux, f2.ux)
	}
	if got, want := f1.ux[f1.up[1]-1], boostPivotRel; got != want {
		t.Fatalf("pivot (0,0) = %v, want the perturbed %v", got, want)
	}
	if st, want := h.stats, (CacheStats{Analyses: 1, Orderings: 1}); st != want {
		t.Fatalf("stats = %+v, want the shaped analysis alone (boost, no fallback)", st)
	}
}

// subMatrix rebuilds a without the off-diagonal entries drop rejects,
// plus the extra coordinates (value 0.5 each).
func subMatrix(a *CSC, drop func(i, j int) bool, extra ...[2]int) *CSC {
	b := NewBuilder(a.NRows, a.NCols)
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if i := a.RowIdx[p]; i == j || !drop(i, j) {
				b.Append(i, j, a.Val[p])
			}
		}
	}
	for _, e := range extra {
		b.Append(e[0], e[1], 0.5)
	}
	return b.ToCSC()
}

// A derived cache factors a pattern that lies inside one its root has
// analyzed on the root's symbolic: no ordering, no analysis, one map
// shared by its handles, its own counters, and the same solution as a
// from-scratch factorization of the smaller matrix. A cache derived from
// the derived one resolves to the same root.
func TestDerivedCacheEmbedsSubPattern(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	full, x := randSparseSystem(r, 40)
	sub := subMatrix(full, func(i, j int) bool { return (i+j)%3 == 0 })
	if len(sub.RowIdx) >= len(full.RowIdx) {
		t.Fatal("test matrix lost no entries")
	}
	root := NewSymbolicCache(OrderRCM)
	rh := root.Handle()
	if _, err := rh.FactorizeInto(&FactorSlot{}, full); err != nil {
		t.Fatal(err)
	}
	rh.Close()

	der := root.Derive()
	if der.Ordering() != OrderRCM || der.Derive().root != root {
		t.Fatal("a derived cache keeps the root's ordering, and chains resolve to the root")
	}
	h1, h2, slot := der.Handle(), der.Handle(), &FactorSlot{}
	var fac *LUFactors
	for _, h := range []*CacheHandle{h1, h2, h1} {
		var err error
		if fac, err = h.FactorizeInto(slot, sub); err != nil {
			t.Fatal(err)
		}
	}
	if e := h1.lookup(sub); e != h2.lookup(sub) || e.pos == nil || der.Symbolic() != root.Symbolic() {
		t.Fatal("both handles should use the one embedding into the root's symbolic")
	}
	rhs := sub.MulVec(x)
	ref, err := FactorizeOpts(sub, OrderRCM, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d := fac.Solve(rhs).Sub(ref.Solve(rhs)).NormInf(); d > 1e-9 {
		t.Fatalf("embedded solve differs from FactorizeOpts by %g", d)
	}
	h1.Close()
	h2.Close()
	if st, want := der.Stats(), (CacheStats{Refactors: 3}); st != want {
		t.Fatalf("derived stats = %+v, want %+v", st, want)
	}
	if st, want := root.Stats(), (CacheStats{Analyses: 1, Orderings: 1}); st != want {
		t.Fatalf("root stats = %+v, want %+v (a derived class counts for itself)", st, want)
	}

	// The slot outlives the solve: a different sub-pattern through the
	// same symbolic must not see the previous one's values.
	sub2 := subMatrix(full, func(i, j int) bool { return (i+j)%3 == 1 })
	h3 := root.Derive().Handle()
	if fac, err = h3.FactorizeInto(slot, sub2); err != nil {
		t.Fatal(err)
	}
	ref2, err := FactorizeOpts(sub2, OrderRCM, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rhs2 := sub2.MulVec(x)
	if d := fac.Solve(rhs2).Sub(ref2.Solve(rhs2)).NormInf(); d > 1e-9 {
		t.Fatalf("second embedding through a reused slot differs from FactorizeOpts by %g", d)
	}
}

// Containment is read off the two patterns and nothing depends on it
// holding: a pattern with one entry outside the root's, a pattern of
// another dimension, and any pattern while the root is still empty are
// analyzed privately — factors bit-identical to a fresh cache's.
func TestDerivedCacheAnalyzesUncontainedPattern(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	full, _ := randSparseSystem(r, 30)
	var outside [2]int
find:
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if i != j && full.At(i, j) == 0 && full.At(j, i) == 0 {
				outside = [2]int{i, j}
				break find
			}
		}
	}
	almost := subMatrix(full, func(i, j int) bool { return (i+j)%4 == 0 }, outside)
	other, _ := randSparseSystem(r, 31)

	private := func(a *CSC) *LUFactors {
		f, err := NewSymbolicCache(OrderAMD).Handle().FactorizeInto(&FactorSlot{}, a)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	check := func(name string, der *SymbolicCache, a *CSC) {
		t.Helper()
		h := der.Handle()
		f, err := h.FactorizeInto(&FactorSlot{}, a)
		if err != nil {
			t.Fatal(err)
		}
		if st, want := h.stats, (CacheStats{Analyses: 1, Orderings: 1}); st != want {
			t.Fatalf("%s: stats = %+v, want the private analysis %+v", name, st, want)
		}
		if w := private(a); !slices.Equal(f.lx, w.lx) || !slices.Equal(f.ux, w.ux) ||
			!slices.Equal(f.li, w.li) || !slices.Equal(f.ui, w.ui) || !slices.Equal(f.q, w.q) {
			t.Fatalf("%s: factors differ from a fresh cache's", name)
		}
	}

	root := NewSymbolicCache(OrderAMD)
	check("empty root", root.Derive(), almost)
	if _, err := root.Handle().FactorizeInto(&FactorSlot{}, full); err != nil {
		t.Fatal(err)
	}
	check("one entry outside", root.Derive(), almost)
	check("other dimension", root.Derive(), other)
}
