package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

func buildSmall(t *testing.T) *CSC {
	t.Helper()
	b := NewBuilder(3, 3)
	b.Append(0, 0, 2)
	b.Append(1, 1, 3)
	b.Append(2, 2, 4)
	b.Append(0, 2, 1)
	b.Append(2, 0, -1)
	return b.ToCSC()
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Append(0, 0, 1)
	b.Append(0, 0, 2.5)
	b.Append(1, 0, -1)
	a := b.ToCSC()
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", a.NNZ())
	}
	if a.At(0, 0) != 3.5 || a.At(1, 0) != -1 || a.At(1, 1) != 0 {
		t.Fatalf("bad values: %v", a.Val)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Append(2, 0, 1)
}

func TestCSCMulVec(t *testing.T) {
	a := buildSmall(t)
	y := a.MulVec(la.Vector{1, 2, 3})
	// A = [2 0 1; 0 3 0; -1 0 4]
	want := la.Vector{5, 6, 11}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-15 {
			t.Fatalf("MulVec = %v", y)
		}
	}
	yt := a.MulVecT(la.Vector{1, 2, 3})
	wantT := la.Vector{-1, 6, 13}
	for i := range wantT {
		if math.Abs(yt[i]-wantT[i]) > 1e-15 {
			t.Fatalf("MulVecT = %v", yt)
		}
	}
}

func TestCSCTranspose(t *testing.T) {
	a := buildSmall(t)
	at := a.T()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCSCDiagScale(t *testing.T) {
	a := buildSmall(t).Clone()
	a.DiagScaleLeft(la.Vector{2, 1, 1})
	if a.At(0, 0) != 4 || a.At(0, 2) != 2 {
		t.Fatalf("DiagScaleLeft: %v", a.Val)
	}
	a = buildSmall(t).Clone()
	a.DiagScaleRight(la.Vector{1, 1, 10})
	if a.At(0, 2) != 10 || a.At(2, 2) != 40 {
		t.Fatalf("DiagScaleRight: %v", a.Val)
	}
}

func TestCSCAddScaled(t *testing.T) {
	a := buildSmall(t)
	s := a.AddScaled(-1, a)
	for _, v := range s.Val {
		if v != 0 {
			t.Fatalf("A - A != 0: %v", s.Val)
		}
	}
	id := Identity(3)
	s2 := a.AddScaled(2, id)
	if s2.At(0, 0) != 4 || s2.At(1, 1) != 5 {
		t.Fatalf("AddScaled: %v", s2.Val)
	}
}

func TestDiagAndIdentity(t *testing.T) {
	d := Diag(la.Vector{1, 2, 3})
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Fatal("Diag wrong")
	}
	i3 := Identity(3)
	v := i3.MulVec(la.Vector{4, 5, 6})
	if v[0] != 4 || v[2] != 6 {
		t.Fatal("Identity wrong")
	}
}

func TestAppendCSCOffsets(t *testing.T) {
	a := Identity(2)
	b := NewBuilder(4, 4)
	b.AppendCSC(0, 0, 1, a)
	b.AppendCSC(2, 2, -3, a)
	m := b.ToCSC()
	if m.At(0, 0) != 1 || m.At(3, 3) != -3 || m.At(2, 0) != 0 {
		t.Fatalf("AppendCSC blocks wrong")
	}
}

func TestToDenseRoundTrip(t *testing.T) {
	a := buildSmall(t)
	d := a.ToDense()
	if d.At(2, 0) != -1 || d.At(1, 1) != 3 {
		t.Fatal("ToDense wrong")
	}
}

func TestLUSolveSmall(t *testing.T) {
	a := buildSmall(t)
	b := la.Vector{1, 2, 3}
	f, err := FactorizeOpts(a, OrderRCM, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := a.MulVec(f.Solve(b)).Sub(b)
	if r.NormInf() > 1e-12 {
		t.Fatalf("residual %v", r.NormInf())
	}
}

func TestLUSingular(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Append(0, 0, 1)
	b.Append(1, 0, 1) // second column empty -> structurally singular
	if _, err := FactorizeOpts(b.ToCSC(), OrderRCM, 1.0); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero diagonal forces row exchanges.
	b := NewBuilder(2, 2)
	b.Append(0, 1, 1)
	b.Append(1, 0, 1)
	a := b.ToCSC()
	f, err := FactorizeOpts(a, OrderRCM, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	x := f.Solve(la.Vector{3, 7})
	if math.Abs(x[0]-7) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
}

func randSparseSystem(r *rand.Rand, n int) (*CSC, la.Vector) {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Append(i, i, 5+r.Float64()*5)
		for k := 0; k < 3; k++ {
			j := r.Intn(n)
			b.Append(i, j, r.NormFloat64())
		}
	}
	x := make(la.Vector, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return b.ToCSC(), x
}

// Property: sparse LU solves random diagonally-dominant systems for every
// ordering choice.
func TestLUSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		a, x := randSparseSystem(r, n)
		rhs := a.MulVec(x)
		for _, ord := range []Ordering{OrderNatural, OrderRCM} {
			fac, err := FactorizeOpts(a, ord, 1.0)
			if err != nil {
				return false
			}
			got := fac.Solve(rhs)
			if got.Clone().Sub(x).NormInf() > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: threshold pivoting (tol<1) still yields accurate solves on
// well-conditioned systems.
func TestLUThresholdPivotProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		a, x := randSparseSystem(r, n)
		rhs := a.MulVec(x)
		fac, err := FactorizeOpts(a, OrderRCM, 0.1)
		if err != nil {
			return false
		}
		got := fac.Solve(rhs)
		return got.Clone().Sub(x).NormInf() < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLUAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, _ := randSparseSystem(r, 25)
	rhs := make(la.Vector, 25)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	f, err := FactorizeOpts(a, OrderRCM, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	xs := f.Solve(rhs)
	xd, err := la.Solve(a.ToDense(), rhs)
	if err != nil {
		t.Fatal(err)
	}
	if xs.Clone().Sub(xd).NormInf() > 1e-9 {
		t.Fatalf("sparse vs dense differ: %v", xs.Clone().Sub(xd).NormInf())
	}
}

func TestRCMReducesFill(t *testing.T) {
	// A 1D Laplacian permuted randomly: RCM should restore a narrow band
	// and produce no more fill than the natural order of the shuffled
	// matrix.
	n := 120
	r := rand.New(rand.NewSource(5))
	perm := r.Perm(n)
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Append(perm[i], perm[i], 4)
		if i+1 < n {
			b.Append(perm[i], perm[i+1], -1)
			b.Append(perm[i+1], perm[i], -1)
		}
	}
	a := b.ToCSC()
	fn, err := FactorizeOpts(a, OrderNatural, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := FactorizeOpts(a, OrderRCM, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.NNZ() > fn.NNZ() {
		t.Fatalf("RCM fill %d > natural fill %d", fr.NNZ(), fn.NNZ())
	}
}

func TestComplexBuilderAndOps(t *testing.T) {
	b := NewBuilderC(2, 2)
	b.Append(0, 0, 1+2i)
	b.Append(0, 0, 1i)
	b.Append(1, 0, 2)
	b.Append(0, 1, -1i)
	a := b.ToCSC()
	if a.NNZ() != 3 {
		t.Fatalf("NNZ = %d", a.NNZ())
	}
	if a.At(0, 0) != 1+3i {
		t.Fatalf("dedup: %v", a.At(0, 0))
	}
	y := a.MulVec([]complex128{1, 1})
	if y[0] != 1+2i || y[1] != 2 {
		t.Fatalf("MulVec = %v", y)
	}
	at := a.T()
	if at.At(1, 0) != -1i || at.At(0, 1) != 2 {
		t.Fatal("T wrong")
	}
	ac := a.Clone().Conj()
	if ac.At(0, 0) != 1-3i {
		t.Fatal("Conj wrong")
	}
	as := a.Clone().Scale(2i)
	if as.At(1, 0) != 4i {
		t.Fatal("Scale wrong")
	}
}

func TestComplexDiagScaleAndParts(t *testing.T) {
	b := NewBuilderC(2, 2)
	b.Append(0, 0, 1+1i)
	b.Append(1, 1, 2-1i)
	b.Append(1, 0, 1)
	a := b.ToCSC()
	a2 := a.Clone().DiagScaleLeft([]complex128{2, 1i})
	if a2.At(0, 0) != 2+2i || a2.At(1, 0) != 1i {
		t.Fatal("DiagScaleLeft wrong")
	}
	a3 := a.Clone().DiagScaleRight([]complex128{1i, 1})
	if a3.At(0, 0) != -1+1i {
		t.Fatal("DiagScaleRight wrong")
	}
	re, im := a.RealPart(), a.ImagPart()
	if re.At(1, 1) != 2 || im.At(1, 1) != -1 || im.At(1, 0) != 0 {
		t.Fatal("Real/ImagPart wrong")
	}
}

func TestComplexAddScaledAddDiag(t *testing.T) {
	b := NewBuilderC(2, 2)
	b.Append(0, 1, 3)
	a := b.ToCSC()
	s := a.AddScaled(1i, a)
	if s.At(0, 1) != 3+3i {
		t.Fatal("AddScaled wrong")
	}
	d := a.AddDiag([]complex128{1, 2i})
	if d.At(0, 0) != 1 || d.At(1, 1) != 2i || d.At(0, 1) != 3 {
		t.Fatal("AddDiag wrong")
	}
}

func TestComplexMulVecT(t *testing.T) {
	b := NewBuilderC(2, 3)
	b.Append(0, 0, 1i)
	b.Append(1, 2, 2)
	a := b.ToCSC()
	y := a.MulVecT([]complex128{1, 1i})
	if y[0] != 1i || y[1] != 0 || y[2] != 2i {
		t.Fatalf("MulVecT = %v", y)
	}
}

func BenchmarkSparseLUKKTLike(b *testing.B) {
	// Pattern similar to a power-grid KKT matrix: banded plus random
	// off-diagonal couplings.
	n := 1200
	r := rand.New(rand.NewSource(11))
	bd := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		bd.Append(i, i, 10)
		if i+1 < n {
			bd.Append(i, i+1, -1)
			bd.Append(i+1, i, -1)
		}
		j := r.Intn(n)
		bd.Append(i, j, 0.5)
	}
	a := bd.ToCSC()
	rhs := make(la.Vector, n)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := FactorizeOpts(a, OrderRCM, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		_ = f.Solve(rhs)
	}
}
