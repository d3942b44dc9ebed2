package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorBasicOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Clone().Add(w); got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Clone().Sub(w); got[0] != -3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := v.Clone().Scale(2); got[2] != 6 {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Clone().AddScaled(-2, w); got[0] != -7 {
		t.Fatalf("AddScaled = %v", got)
	}
}

func TestVectorNorms(t *testing.T) {
	v := Vector{3, -4}
	if v.NormInf() != 4 {
		t.Errorf("NormInf = %v", v.NormInf())
	}
	if (Vector{}).NormInf() != 0 {
		t.Errorf("empty NormInf != 0")
	}
}

func TestVectorMinMaxSum(t *testing.T) {
	v := Vector{2, -1, 7, 0}
	if v.Min() != -1 || v.Max() != 7 || v.Sum() != 8 {
		t.Fatalf("Min/Max/Sum = %v %v %v", v.Min(), v.Max(), v.Sum())
	}
}

func TestVectorHasNaN(t *testing.T) {
	if (Vector{1, 2}).HasNaN() {
		t.Error("false positive")
	}
	if !(Vector{1, math.NaN()}).HasNaN() {
		t.Error("missed NaN")
	}
	if !(Vector{math.Inf(1)}).HasNaN() {
		t.Error("missed Inf")
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	v := Vector{1, 0, -1}
	got := m.MulVec(v)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
	gt := m.MulVecT(Vector{1, 1})
	if gt[0] != 5 || gt[1] != 7 || gt[2] != 9 {
		t.Fatalf("MulVecT = %v", gt)
	}
}

func TestMatrixMul(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float64{0, 1, 1, 0})
	c := a.Mul(b)
	want := []float64{2, 1, 4, 3}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("Mul = %v", c.Data)
		}
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T = %+v", at)
	}
}

func TestEyeAndDet(t *testing.T) {
	f, err := Factorize(Eye(4))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), 1, 1e-14) {
		t.Fatalf("Det(I) = %v", f.Det())
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrix(3, 3)
	copy(a.Data, []float64{2, 1, 1, 1, 3, 2, 1, 0, 0})
	b := Vector{4, 5, 6}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify residual, not hard-coded solution.
	r := a.MulVec(x).Sub(b)
	if r.NormInf() > 1e-12 {
		t.Fatalf("residual %v", r.NormInf())
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := Factorize(a); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestLUDetSign(t *testing.T) {
	// Permutation matrix [[0,1],[1,0]] has det -1.
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{0, 1, 1, 0})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -1, 1e-14) {
		t.Fatalf("Det = %v", f.Det())
	}
}

// Property: for random well-conditioned A, Solve(A, A*x) recovers x.
func TestLUSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		// Diagonal dominance keeps the condition number sane.
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += float64(n) * 3
		}
		x := make(Vector, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		return got.Clone().Sub(x).NormInf() < 1e-8
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Det(A*B) == Det(A)*Det(B) for small random matrices.
func TestDetMultiplicativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		mk := func() *Matrix {
			m := NewMatrix(n, n)
			for i := range m.Data {
				m.Data[i] = r.NormFloat64()
			}
			for i := 0; i < n; i++ {
				m.Data[i*n+i] += 4
			}
			return m
		}
		a, b := mk(), mk()
		fa, err1 := Factorize(a)
		fb, err2 := Factorize(b)
		fab, err3 := Factorize(a.Mul(b))
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		prod := fa.Det() * fb.Det()
		return math.Abs(fab.Det()-prod) <= 1e-8*(1+math.Abs(prod))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixAddScaledMatScaleMaxAbs(t *testing.T) {
	a := Eye(2)
	b := Eye(2)
	a.AddScaledMat(2, b)
	if a.At(0, 0) != 3 || a.At(0, 1) != 0 {
		t.Fatalf("AddScaledMat = %v", a.Data)
	}
	a.Scale(-2)
	if a.At(1, 1) != -6 {
		t.Fatalf("Scale = %v", a.Data)
	}
	if a.MaxAbs() != 6 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestMatrixRowAliases(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("Row must alias storage")
	}
}

func BenchmarkLUFactorize100(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	n := 100
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += 50
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factorize(a); err != nil {
			b.Fatal(err)
		}
	}
}
