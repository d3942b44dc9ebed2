package sparse

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

// quasiDefPattern draws the positions of a random symmetric
// quasi-definite system of dimension n: primal variables with a
// diagonal and a few symmetric couplings, dual rows bordering a few
// primal columns each, primal and dual indices interleaved at random so
// every ordering mixes them. The values come from quasiDefValues.
type quasiDefPattern struct {
	n    int
	dual []bool
	ps   [][2]int // (i, j) with i ≥ j; mirrored on build
}

func randQuasiDefPattern(r *rand.Rand, n int) quasiDefPattern {
	qp := quasiDefPattern{n: n, dual: make([]bool, n)}
	var primal []int
	for i := 0; i < n; i++ {
		qp.dual[i] = i > 0 && r.Intn(3) == 0
		if !qp.dual[i] {
			primal = append(primal, i)
		}
	}
	for i := 0; i < n; i++ {
		qp.ps = append(qp.ps, [2]int{i, i})
		for k := 0; k < 2; k++ {
			j := primal[r.Intn(len(primal))]
			if qp.dual[i] || j < i {
				qp.ps = append(qp.ps, [2]int{max(i, j), min(i, j)})
			}
		}
	}
	return qp
}

// build assembles the matrix: a diagonally dominant positive primal
// block, a negative dual diagonal, symmetric values everywhere.
func (qp quasiDefPattern) build(r *rand.Rand) *CSC {
	b := NewBuilder(qp.n, qp.n)
	for _, p := range qp.ps {
		i, j := p[0], p[1]
		switch {
		case i != j:
			v := r.NormFloat64()
			b.Append(i, j, v)
			b.Append(j, i, v)
		case qp.dual[i]:
			b.Append(i, i, -(0.1 + r.Float64()))
		default:
			b.Append(i, i, 6+r.Float64()*4)
		}
	}
	return b.ToCSC()
}

// randQuasiDefPair builds two quasi-definite matrices with one pattern
// and independent values.
func randQuasiDefPair(r *rand.Rand, n int) (*CSC, *CSC) {
	qp := randQuasiDefPattern(r, n)
	return qp.build(r), qp.build(r)
}

// randQuasiDefSystem is a quasi-definite matrix and a solution vector.
func randQuasiDefSystem(r *rand.Rand, n int) (*CSC, la.Vector) {
	x := make(la.Vector, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return randQuasiDefPattern(r, n).build(r), x
}

// symmetrize returns (a + aᵀ)/2 entry by entry, on the union pattern.
func symmetrize(a *CSC) *CSC {
	b := NewBuilder(a.NRows, a.NCols)
	b.AppendCSC(0, 0, 0.5, a)
	b.AppendCSC(0, 0, 0.5, a.T())
	return b.ToCSC()
}

// denseTailSystem builds a symmetric band system with a dense trailing
// block — the shape that produces wide supernodes (fill makes the last
// columns share one below-row set), so the panel path is guaranteed to
// be exercised.
func denseTailSystem(r *rand.Rand, n, tail int) *CSC {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Append(i, i, 2*float64(tail)+8+r.Float64()*4)
		if i+1 < n {
			b.Append(i, i+1, r.NormFloat64())
		}
	}
	for i := n - tail; i < n; i++ {
		for j := n - tail; j < i; j++ {
			b.Append(i, j, r.NormFloat64())
		}
		// Couple the tail to the band so the pattern is irreducible.
		b.Append(i, r.Intn(n-tail), r.NormFloat64())
	}
	return symmetrize(b.ToCSC())
}

// panelSystem builds, for the natural ordering, a symmetric tridiagonal
// system with a dense block [c0, c0+w) coupled to the last three rows:
// the block's columns share {next block rows} ∪ {tail rows} as below
// sets, which is the textbook supernode shape — panels in the middle of
// the elimination with a nonempty shared below-row set.
func panelSystem(r *rand.Rand, n, w int) *CSC {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Append(i, i, 50+r.Float64()*10)
		if i+1 < n {
			b.Append(i, i+1, r.NormFloat64())
		}
	}
	c0 := n / 2
	for i := c0; i < c0+w; i++ {
		for j := c0; j < i; j++ {
			b.Append(i, j, r.NormFloat64())
		}
		for _, t := range []int{n - 3, n - 2, n - 1} {
			b.Append(t, i, r.NormFloat64())
		}
	}
	return symmetrize(b.ToCSC())
}

// withFreshValues reuses a symmetric matrix's pattern with fresh,
// symmetric values of the same diagonal scale.
func withFreshValues(r *rand.Rand, a *CSC) *CSC {
	c := a.Clone()
	for j := 0; j < c.NCols; j++ {
		for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
			if i := c.RowIdx[p]; i == j {
				c.Val[p] *= 0.9 + 0.2*r.Float64()
			} else if i > j {
				c.Val[p] = r.NormFloat64()
			}
		}
	}
	// Mirror the lower triangle into the upper one.
	for j := 0; j < c.NCols; j++ {
		for p := c.ColPtr[j]; p < c.ColPtr[j+1]; p++ {
			if i := c.RowIdx[p]; i < j {
				c.Val[p] = c.At(j, i)
			}
		}
	}
	return c
}

// factorLDL is the allocating convenience over FactorInto.
func factorLDL(s *LDLSymbolic, a *CSC) (*LDLFactors, error) {
	f := &LDLFactors{}
	if err := s.FactorInto(f, a); err != nil {
		return nil, err
	}
	return f, nil
}

// compareLDL factors a on sym and checks its solve against the dense
// partial-pivoting reference (la.Solve) to tol relative.
func compareLDL(t *testing.T, sym *LDLSymbolic, a *CSC, r *rand.Rand, tol float64) {
	t.Helper()
	f, err := factorLDL(sym, a)
	if err != nil {
		t.Fatalf("LDLᵀ: %v", err)
	}
	rhs := make(la.Vector, a.NRows)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	xd, err := la.Solve(a.ToDense(), rhs)
	if err != nil {
		t.Fatalf("dense reference: %v", err)
	}
	if d := solve(f, rhs).AddScaled(-1, xd).NormInf(); d > tol*(1+xd.NormInf()) {
		t.Fatalf("LDLᵀ vs dense reference: |Δx|∞ = %v (|x|∞ = %v)", d, xd.NormInf())
	}
}

// orderNames names the elimination orders of testAnalyses, in its order.
var orderNames = []string{"natural", "random", "mindegree"}

// testAnalyses analyzes a under three elimination orders: the natural
// one, a permutation drawn from seed, and exact minimum degree — the
// production analysis and two orders it never produces, so the kernel
// tests cover supernode shapes minimum degree does not make.
func testAnalyses(a *CSC, seed int64) []*LDLSymbolic {
	random := rand.New(rand.NewSource(seed)).Perm(a.NCols)
	return []*LDLSymbolic{analyzeLDLPerm(a, naturalOrder(a.NCols)), analyzeLDLPerm(a, random), AnalyzeLDL(a)}
}

// naturalOrder is the identity elimination order 0, 1, …, n-1.
func naturalOrder(n int) []int {
	q := make([]int, n)
	for i := range q {
		q[i] = i
	}
	return q
}

// widestPanel returns the widest supernode of s and the largest shared
// below-row set among those at least two columns wide.
func widestPanel(s *LDLSymbolic) (width, below int) {
	for sn := 0; sn+1 < len(s.snStart); sn++ {
		w := s.snStart[sn+1] - s.snStart[sn]
		width = max(width, w)
		if e := s.snStart[sn+1] - 1; w > 1 {
			below = max(below, s.lp[e+1]-s.lp[e])
		}
	}
	return width, below
}

// Property: on random quasi-definite patterns, under every elimination
// order of testAnalyses, the supernodal LDLᵀ of values the analysis
// never saw agrees with the dense reference.
func TestRefactorBlockedMatchesScalarRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(60)
		a1, a2 := randQuasiDefPair(r, n)
		for _, sym := range testAnalyses(a1, seed) {
			compareLDL(t, sym, a2, r, 1e-9)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Dense trailing blocks must actually form supernodes, and the panel
// updates must agree with the dense reference on them.
func TestRefactorBlockedDenseTailPanels(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 40 + r.Intn(80)
		tail := 6 + r.Intn(10)
		a := denseTailSystem(r, n, tail)
		sym := AnalyzeLDL(a)
		if w, _ := widestPanel(sym); w < tail {
			t.Fatalf("trial %d: dense tail of %d made no supernode that wide (widest %d)", trial, tail, w)
		}
		compareLDL(t, sym, a, r, 1e-9)
		compareLDL(t, sym, withFreshValues(r, a), r, 1e-9)
	}
}

// Mid-elimination supernodes with a nonempty shared below-row set: the
// panel update of rows outside the supernode (not just its dense
// triangle) must run and agree with the dense reference.
func TestRefactorBlockedMidPanels(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		n := 30 + r.Intn(60)
		w := 4 + r.Intn(8)
		a := panelSystem(r, n, w)
		sym := analyzeLDLPerm(a, naturalOrder(n))
		if width, below := widestPanel(sym); width < 2 || below == 0 || compileColumns(sym).maxPanel == 0 {
			t.Fatalf("trial %d (n=%d w=%d): no below-coupled supernode (width %d, below %d)", trial, n, w, width, below)
		}
		compareLDL(t, sym, a, r, 1e-9)
		compareLDL(t, sym, withFreshValues(r, a), r, 1e-9)
	}
}

// collapsing returns the 2×2 matrix [[a, b], [b, fl(b²/a)]]: singular in
// exact arithmetic, while the LDLᵀ leaves a rounding residue in its
// second pivot rather than an exact zero.
func collapsing(a, b float64) *CSC {
	m := NewBuilder(2, 2)
	m.Append(0, 0, a)
	m.Append(0, 1, b)
	m.Append(1, 0, b)
	m.Append(1, 1, b*b/a)
	return m.ToCSC()
}

// A column whose updated entries collapse to a rounding residue is
// rejected as singular — where the static pivot boost would otherwise
// scale that residue into a pivot — and the factors stay usable: the
// next matrix factors as if nothing happened.
func TestRefactorBlockedUnstableFallback(t *testing.T) {
	weak := collapsing(7, 1.3)
	b := weak.Val[1]
	residue := weak.Val[3] - (b/weak.Val[0])*(weak.Val[0]*(b/weak.Val[0]))
	if residue == 0 || math.Abs(residue) > singularRel*math.Abs(b) {
		t.Fatalf("fixture: residue %v is not a nonzero rounding residue below the threshold", residue)
	}
	sym := AnalyzeLDL(weak)
	f := &LDLFactors{}
	if err := sym.FactorInto(f, weak); !errors.Is(err, ErrSingular) {
		t.Fatalf("collapsed column: %v, want ErrSingular", err)
	}
	good := collapsing(7, 1.3)
	good.Val[3] += 1
	if err := sym.FactorInto(f, good); err != nil {
		t.Fatal(err)
	}
	want, err := factorLDL(sym, good)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.lx, want.lx) || !slices.Equal(f.d, want.d) {
		t.Fatal("factors after a rejected column differ from fresh ones")
	}
	x := solve(f, la.Vector{1, 2})
	if res := good.MulVec(x).AddScaled(-1, la.Vector{1, 2}).NormInf(); res > 1e-9 {
		t.Fatalf("solve residual after the rejected column %v", res)
	}
}

// One factors value reused across matrices must rebind cleanly: every
// result matches, bit for bit, the same kernel run on fresh storage.
func TestRefactorIntoMatchesRefactor(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	a := denseTailSystem(r, 60, 8)
	ldl := AnalyzeLDL(a)
	g := &LDLFactors{}
	for trial := 0; trial < 4; trial++ {
		m := withFreshValues(r, a)
		want, err := factorLDL(ldl, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := ldl.FactorInto(g, m); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(want.lx, g.lx) || !slices.Equal(want.d, g.d) {
			t.Fatalf("trial %d: reused LDLᵀ FactorInto differs from fresh", trial)
		}
	}
}

// The steady-state numeric loop — factorization plus triangular solves —
// must allocate nothing. This is the kernel half of the
// allocation-regression harness; the MIPS-loop half lives in
// internal/mips.
func TestRefactorIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := rand.New(rand.NewSource(41))
	a := denseTailSystem(r, 120, 12)
	m := withFreshValues(r, a)
	ldl := AnalyzeLDL(a)
	g := &LDLFactors{}
	rhs := make(la.Vector, a.NRows)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	dst := make(la.Vector, a.NRows)
	work := make(la.Vector, a.NRows)
	if err := ldl.FactorInto(g, m); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		fn   func()
	}{
		{"LDL FactorInto", func() {
			if err := ldl.FactorInto(g, m); err != nil {
				t.Fatal(err)
			}
		}},
		{"LDL SolveInto", func() { g.SolveInto(dst, rhs, work) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(50, c.fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", c.name, n)
		}
	}

	// And through a cache handle and slot: the full factorization path
	// of a warm iteration loop.
	cache := NewSymbolicCache().Handle()
	slot := &FactorSlot{}
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

// Fuzz: arbitrary byte streams become quasi-definite (pattern, values)
// pairs, and dense-tail systems; the supernodal LDLᵀ, under a random
// elimination order and under minimum degree, must agree with the dense
// reference on whatever comes out. Run with
// `go test -fuzz FuzzRefactorBlocked ./internal/sparse` to explore; the
// seed corpus below runs as a normal test in CI.
func FuzzRefactorBlockedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3))
	f.Add(int64(99), uint8(40), uint8(12))
	f.Add(int64(-7), uint8(80), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw uint8) {
		n := 2 + int(nRaw)%96
		r := rand.New(rand.NewSource(seed))
		a1, a2 := randQuasiDefPair(r, n)
		compareLDL(t, testAnalyses(a1, seed)[1], a2, r, 1e-8)
		if extraRaw%2 == 0 {
			if tail := 3 + int(extraRaw)%13; tail < n {
				d := denseTailSystem(r, n, tail)
				compareLDL(t, AnalyzeLDL(d), withFreshValues(r, d), r, 1e-8)
			}
		}
	})
}

// Fuzz: arbitrary byte streams become quasi-definite, panel and
// dense-tail systems under every elimination order of testAnalyses, with values the analysis
// never saw; FactorInto must reproduce the column kernel bit for bit
// (matchColumnKernel). The seed corpus runs as a normal test; explore
// with `go test -run '^$' -fuzz '^FuzzLDLMatchesColumnKernel$' ./internal/sparse`.
func FuzzLDLMatchesColumnKernel(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0))
	f.Add(int64(5), uint8(33), uint8(4))
	f.Add(int64(-3), uint8(70), uint8(8))
	f.Add(int64(17), uint8(90), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kind uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw)%120
		var a *CSC
		switch kind % 3 {
		case 0:
			a = randQuasiDefPattern(r, n).build(r)
		case 1:
			w := 2 + int(kind/3)%10
			a = panelSystem(r, max(n, 2*w+8), w)
		default:
			a = denseTailSystem(r, max(n, 4), 1+min(int(kind/3)%16, max(n, 4)-2))
		}
		sym := testAnalyses(a, seed)[int(kind/3)%3]
		if err := matchColumnKernel(sym, withFreshValues(r, a)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNegativePivotsCountInertia pins NegativePivots to Sylvester's law
// on matrices of known inertia, under every elimination order of
// testAnalyses. The bordered
// system [H Jᵀ; J −δ] with H = diag(h1, h2) and J = [1 1] has one
// negative eigenvalue when H is positive on J's null space (h1 + h2 > 0)
// and two when it is not, whatever H's own signs; a random symmetric
// quasi-definite matrix has exactly as many as it has dual rows.
func TestNegativePivotsCountInertia(t *testing.T) {
	bordered := func(h1, h2 float64) *CSC {
		b := NewBuilder(3, 3)
		b.Append(0, 0, h1)
		b.Append(1, 1, h2)
		b.Append(2, 2, -1e-8)
		for _, j := range []int{0, 1} {
			b.Append(2, j, 1)
			b.Append(j, 2, 1)
		}
		return b.ToCSC()
	}
	r := rand.New(rand.NewSource(3))
	type fixture struct {
		name string
		a    *CSC
		neg  int
	}
	fixtures := []fixture{
		{"H positive definite", bordered(2, 1), 1},
		{"H indefinite, positive on null(J)", bordered(2, -1), 1},
		{"H negative on null(J)", bordered(1, -2), 2},
	}
	for k := 0; k < 5; k++ {
		qp := randQuasiDefPattern(r, 40)
		dual := 0
		for _, d := range qp.dual {
			if d {
				dual++
			}
		}
		fixtures = append(fixtures, fixture{"quasi-definite", qp.build(r), dual})
	}
	for _, fx := range fixtures {
		for k, sym := range testAnalyses(fx.a, 5) {
			var f LDLFactors
			if err := sym.FactorInto(&f, fx.a); err != nil {
				t.Fatalf("%s, %s: %v", fx.name, orderNames[k], err)
			}
			if got := f.NegativePivots(); got != fx.neg {
				t.Errorf("%s, %s: %d negative pivots, want %d", fx.name, orderNames[k], got, fx.neg)
			}
		}
	}
}

// TestPackedLayoutMatchesLoader pins the packed input of FactorPacked,
// under every elimination order of testAnalyses: Slots gives an entry
// and its mirror one slot, a diagonal entry the head of its packed
// column and distinct pairs distinct slots, and a caller stamping each
// lower entry once into those slots factors bit for bit what
// FactorInto's loader factors from both triangles (each stamped value
// written once, so a −0 diagonal stays −0) — including the
// collapse verdict, whose column scan reads the packed row as well as
// the packed column.
func TestPackedLayoutMatchesLoader(t *testing.T) {
	for _, fx := range kernelFixtures(43) {
		for o, sym := range testAnalyses(fx.A, 43) {
			a := fx.A
			slots := sym.Slots(a)
			owner := map[int32][2]int{}
			v := make([]float64, sym.NNZ())
			for j := 0; j < a.NCols; j++ {
				for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
					i, pair := a.RowIdx[p], [2]int{max(a.RowIdx[p], j), min(a.RowIdx[p], j)}
					if prev, seen := owner[slots[p]]; seen && prev != pair {
						t.Fatalf("%s/%s: (%d,%d) and %v share slot %d", fx.Name, orderNames[o], i, j, prev, slots[p])
					}
					owner[slots[p]] = pair
					if k := sym.pinv[j]; i == j && int(slots[p]) != sym.lp[k]+k {
						t.Fatalf("%s/%s: diagonal %d at slot %d, its packed column starts at %d", fx.Name, orderNames[o], j, slots[p], sym.lp[k]+k)
					}
					if i >= j {
						v[slots[p]] = a.Val[p]
					}
				}
			}
			var want, got LDLFactors
			werr, gerr := sym.FactorInto(&want, a), sym.FactorPacked(&got, v)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s/%s: FactorPacked returned %v, FactorInto %v", fx.Name, orderNames[o], gerr, werr)
			}
			if werr == nil && (!slices.Equal(want.lx, got.lx) || !slices.Equal(want.d, got.d)) {
				t.Fatalf("%s/%s: FactorPacked and FactorInto differ", fx.Name, orderNames[o])
			}
		}
	}
}
