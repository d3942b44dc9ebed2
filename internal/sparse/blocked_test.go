package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

// denseTailSystem builds a sparse band system with a dense trailing
// block — the shape that produces wide supernodes in the factor (fill
// makes the last columns share one below-row set), so the panel path
// is guaranteed to be exercised.
func denseTailSystem(r *rand.Rand, n, tail int) *CSC {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Append(i, i, 8+r.Float64()*4)
		if i+1 < n {
			b.Append(i, i+1, r.NormFloat64())
			b.Append(i+1, i, r.NormFloat64())
		}
	}
	for i := n - tail; i < n; i++ {
		for j := n - tail; j < n; j++ {
			if i != j {
				b.Append(i, j, r.NormFloat64())
			}
		}
		// Couple the tail to the band so the pattern is irreducible.
		b.Append(i, r.Intn(n-tail), r.NormFloat64())
		b.Append(r.Intn(n-tail), i, r.NormFloat64())
	}
	return b.ToCSC()
}

// panelSystem builds, for the natural ordering, a tridiagonal system
// with a dense column block [c0, c0+w) coupled to the last three rows:
// the block columns share exactly {next block rows} ∪ {tail rows} as
// below sets, which is the textbook supernode shape — panels in the
// middle of the elimination with a nonempty shared below-row set.
func panelSystem(r *rand.Rand, n, w int) *CSC {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Append(i, i, 50+r.Float64()*10)
		if i+1 < n {
			b.Append(i, i+1, r.NormFloat64())
			b.Append(i+1, i, r.NormFloat64())
		}
	}
	c0 := n / 2
	for i := c0; i < c0+w; i++ {
		for j := c0; j < c0+w; j++ {
			if i != j {
				b.Append(i, j, r.NormFloat64())
			}
		}
		for _, t := range []int{n - 3, n - 2, n - 1} {
			b.Append(t, i, r.NormFloat64())
			b.Append(i, t, r.NormFloat64())
		}
	}
	return b.ToCSC()
}

// sameValues reuses a matrix's pattern with fresh values.
func withFreshValues(r *rand.Rand, a *CSC) *CSC {
	c := a.Clone()
	for p := range c.Val {
		if c.RowIdx[p] == colOf(c, p) {
			c.Val[p] = 8 + r.Float64()*4
		} else {
			c.Val[p] = r.NormFloat64()
		}
	}
	return c
}

func colOf(a *CSC, p int) int {
	for j := 0; j < a.NCols; j++ {
		if p >= a.ColPtr[j] && p < a.ColPtr[j+1] {
			return j
		}
	}
	return -1
}

// compareKernels refactors a through both kernels on one Symbolic and
// checks the factors agree: identical U positions (same ui layout),
// and solves within tol of each other and of the dense reference.
func compareKernels(t *testing.T, sym *Symbolic, a *CSC, r *rand.Rand, tol float64) {
	t.Helper()
	fs, errS := refactor(sym, a)
	fb, errB := refactorBlocked(sym, a)
	if (errS == nil) != (errB == nil) {
		t.Fatalf("kernel error mismatch: scalar %v, blocked %v", errS, errB)
	}
	if errS != nil {
		return
	}
	for p := range fs.ux {
		d := math.Abs(fs.ux[p] - fb.ux[p])
		if d > tol*(1+math.Abs(fs.ux[p])) {
			t.Fatalf("ux[%d]: scalar %v vs blocked %v", p, fs.ux[p], fb.ux[p])
		}
	}
	rhs := make(la.Vector, a.NRows)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	xs, xb := fs.Solve(rhs), fb.Solve(rhs)
	if xs.Clone().Sub(xb).NormInf() > tol*(1+xs.NormInf()) {
		t.Fatalf("solve mismatch: |xs-xb| = %v", xs.Clone().Sub(xb).NormInf())
	}
	xd, err := la.Solve(a.ToDense(), rhs)
	if err == nil && xb.Clone().Sub(xd).NormInf() > 1e-6*(1+la.Vector(xd).NormInf()) {
		t.Fatalf("blocked vs dense reference: %v", xb.Clone().Sub(xd).NormInf())
	}
}

// Property: on random patterns, RefactorBlocked agrees with the scalar
// Refactor and the dense reference for every ordering.
func TestRefactorBlockedMatchesScalarRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(60)
		a1, a2 := randPatternPair(r, n)
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD} {
			sym, _, err := Analyze(a1, ord, 1.0)
			if err != nil {
				return false
			}
			compareKernels(t, sym, a2, r, 1e-9)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Dense trailing blocks must actually form panels, and the panel path
// must agree with the scalar kernel on them.
func TestRefactorBlockedDenseTailPanels(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 40 + r.Intn(80)
		tail := 6 + r.Intn(10)
		a := denseTailSystem(r, n, tail)
		sym, _, err := Analyze(a, OrderAMD, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		st := sym.PanelStats()
		if st.MaxWidth < 2 {
			t.Fatalf("trial %d: dense tail produced no panels: %+v", trial, st)
		}
		compareKernels(t, sym, a, r, 1e-9)
		compareKernels(t, sym, withFreshValues(r, a), r, 1e-9)
	}
}

// Mid-elimination panels with a nonempty shared below-row set: the
// panel-axpy path (not just the dense triangular part) must run and
// agree with the scalar kernel.
func TestRefactorBlockedMidPanels(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		n := 30 + r.Intn(60)
		w := 4 + r.Intn(8)
		a := panelSystem(r, n, w)
		sym, _, err := Analyze(a, OrderNatural, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		st := sym.PanelStats()
		if st.MaxWidth < 2 || st.MaxBelow == 0 || st.PanelFrac == 0 {
			t.Fatalf("trial %d (n=%d w=%d): no below-coupled panels: %+v", trial, n, w, st)
		}
		compareKernels(t, sym, a, r, 1e-9)
		compareKernels(t, sym, withFreshValues(r, a), r, 1e-9)
	}
}

// The blocked kernel must apply the same pivot-decay floor as the
// scalar kernel and restore its workspace on the error path, so the
// CacheHandle re-analyze fallback works identically for both.
func TestRefactorBlockedUnstableFallback(t *testing.T) {
	build := func(d float64) *CSC {
		b := NewBuilder(2, 2)
		b.Append(0, 0, d)
		b.Append(0, 1, 1)
		b.Append(1, 0, 1)
		b.Append(1, 1, d)
		return b.ToCSC()
	}
	sym, _, err := Analyze(build(2), OrderNatural, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	f := &LUFactors{}
	ws := sym.NewRefactorWorkspace()
	if err := sym.RefactorBlockedInto(f, ws, build(1e-14)); !errors.Is(err, ErrRefactorUnstable) {
		t.Fatalf("blocked kernel on decayed pivot: %v, want ErrRefactorUnstable", err)
	}
	for i, v := range ws.x {
		if v != 0 {
			t.Fatalf("workspace not restored after error: x[%d] = %v", i, v)
		}
	}
	// The workspace survives the error and a good matrix still factors.
	if err := sym.RefactorBlockedInto(f, ws, build(3)); err != nil {
		t.Fatal(err)
	}
	x := f.Solve(la.Vector{1, 2})
	if res := build(3).MulVec(x).Sub(la.Vector{1, 2}).NormInf(); res > 1e-12 {
		t.Fatalf("post-fallback solve residual %v", res)
	}

	// Through a cache handle holding that value-pivoted sequence, with
	// the blocked kernel forced on: the decayed matrix must trigger the
	// re-analyze fallback, exactly like the scalar path in
	// TestSymbolicCacheUnstableFallback.
	sym.blocked().use = true
	h := NewSymbolicCache(OrderNatural).Handle()
	h.own = analysisOf(sym)
	weak := build(1e-14)
	fac, err := h.FactorizeInto(&FactorSlot{}, weak)
	if err != nil {
		t.Fatal(err)
	}
	x = fac.Solve(la.Vector{1, 2})
	if res := weak.MulVec(x).Sub(la.Vector{1, 2}).NormInf(); res > 1e-9 {
		t.Fatalf("fallback solve residual %v", res)
	}
	if st := h.stats; st.Fallbacks != 1 || st.Analyses != 1 {
		t.Fatalf("stats = %+v, want 1 fallback + the 1 analysis that replaced the stale sequence", st)
	}
}

// One factors/workspace pair reused across kernels and matrices must
// rebind cleanly: every result matches, bit for bit, the same kernel
// run on fresh factors and a fresh workspace.
func TestRefactorIntoMatchesRefactor(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	a := denseTailSystem(r, 60, 8)
	sym, _, err := Analyze(a, OrderRCM, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	f := &LUFactors{}
	ws := sym.NewRefactorWorkspace()
	for trial := 0; trial < 4; trial++ {
		m := withFreshValues(r, a)
		want, err := refactor(sym, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := sym.RefactorInto(f, ws, m); err != nil {
			t.Fatal(err)
		}
		for p := range want.lx {
			if want.lx[p] != f.lx[p] {
				t.Fatalf("trial %d: reused RefactorInto differs from fresh at lx[%d]", trial, p)
			}
		}
		for p := range want.ux {
			if want.ux[p] != f.ux[p] {
				t.Fatalf("trial %d: reused RefactorInto differs from fresh at ux[%d]", trial, p)
			}
		}
		wantB, err := refactorBlocked(sym, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := sym.RefactorBlockedInto(f, ws, m); err != nil {
			t.Fatal(err)
		}
		for p := range wantB.lx {
			if wantB.lx[p] != f.lx[p] {
				t.Fatalf("trial %d: reused RefactorBlockedInto differs from fresh at lx[%d]", trial, p)
			}
		}
		for p := range wantB.ux {
			if wantB.ux[p] != f.ux[p] {
				t.Fatalf("trial %d: reused RefactorBlockedInto differs from fresh at ux[%d]", trial, p)
			}
		}
	}
}

// The steady-state numeric loop — refactor (either kernel) plus
// triangular solves — must allocate nothing. This is the kernel half
// of the allocation-regression harness; the MIPS-loop half lives in
// internal/mips.
func TestRefactorIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := rand.New(rand.NewSource(41))
	a := denseTailSystem(r, 120, 12)
	sym, _, err := Analyze(a, OrderAMD, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m := withFreshValues(r, a)
	f := &LUFactors{}
	ws := sym.NewRefactorWorkspace()
	rhs := make(la.Vector, a.NRows)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	dst := make(la.Vector, a.NRows)
	work := make(la.Vector, a.NRows)
	if err := sym.RefactorBlockedInto(f, ws, m); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		fn   func()
	}{
		{"RefactorInto", func() {
			if err := sym.RefactorInto(f, ws, m); err != nil {
				t.Fatal(err)
			}
		}},
		{"RefactorBlockedInto", func() {
			if err := sym.RefactorBlockedInto(f, ws, m); err != nil {
				t.Fatal(err)
			}
		}},
		{"SolveInto", func() { f.SolveInto(dst, rhs, work) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(50, c.fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", c.name, n)
		}
	}

	// And through a cache handle and slot: the full factorization path
	// of a warm iteration loop.
	cache := NewSymbolicCache(OrderAMD).Handle()
	slot := &FactorSlot{}
	if _, err := cache.FactorizeInto(slot, m); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.FactorizeInto(slot, m); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := cache.FactorizeInto(slot, m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FactorizeInto allocates %v times per call, want 0", n)
	}
}

// Fuzz: arbitrary byte streams become (pattern, values) pairs; the two
// kernels must stay equivalent on whatever patterns come out. Run with
// `go test -fuzz FuzzRefactorBlocked ./internal/sparse` to explore; the
// seed corpus below runs as a normal test in CI.
func FuzzRefactorBlockedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3))
	f.Add(int64(99), uint8(40), uint8(12))
	f.Add(int64(-7), uint8(80), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw uint8) {
		n := 2 + int(nRaw)%96
		r := rand.New(rand.NewSource(seed))
		a1, a2 := randPatternPair(r, n)
		sym, _, err := Analyze(a1, OrderRCM, 1.0)
		if err != nil {
			t.Skip() // singular draw
		}
		compareKernels(t, sym, a2, r, 1e-8)
		if extraRaw%2 == 0 {
			tail := 3 + int(extraRaw)%13
			if tail < n {
				d := denseTailSystem(r, n, tail)
				sym2, _, err := Analyze(d, OrderAMD, 1.0)
				if err != nil {
					t.Skip()
				}
				compareKernels(t, sym2, withFreshValues(r, d), r, 1e-8)
			}
		}
	})
}
