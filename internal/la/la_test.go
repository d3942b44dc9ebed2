package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// eye returns the n×n identity matrix.
func eye(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// mulVec returns m*v as a new vector.
func mulVec(m *Matrix, v Vector) Vector {
	checkLen(m.Cols, len(v))
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out
}

// mul returns m*b as a new matrix.
func mul(m, b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("la: Mul dims %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bkj := range brow {
				orow[j] += aik * bkj
			}
		}
	}
	return out
}

// det returns the determinant of the factorized matrix.
func det(f *LU) float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

func TestVectorBasicOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Clone().Add(w); got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
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
	got := mulVec(m, v)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMatrixMul(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float64{0, 1, 1, 0})
	c := mul(a, b)
	want := []float64{2, 1, 4, 3}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("Mul = %v", c.Data)
		}
	}
}

func TestEyeAndDet(t *testing.T) {
	f, err := Factorize(eye(4))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(det(f), 1, 1e-14) {
		t.Fatalf("Det(I) = %v", det(f))
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
	r := mulVec(a, x).AddScaled(-1, b)
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
	if !almostEq(det(f), -1, 1e-14) {
		t.Fatalf("Det = %v", det(f))
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
		b := mulVec(a, x)
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		return got.Clone().AddScaled(-1, x).NormInf() < 1e-8
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
		fab, err3 := Factorize(mul(a, b))
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		prod := det(fa) * det(fb)
		return math.Abs(det(fab)-prod) <= 1e-8*(1+math.Abs(prod))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixAddScaledMatScaleMaxAbs(t *testing.T) {
	a := eye(2)
	b := eye(2)
	a.AddScaledMat(2, b)
	if a.At(0, 0) != 3 || a.At(0, 1) != 0 {
		t.Fatalf("AddScaledMat = %v", a.Data)
	}
	a.Scale(-2)
	if a.At(1, 1) != -6 {
		t.Fatalf("Scale = %v", a.Data)
	}
	if m := Vector(a.Data).NormInf(); m != 6 {
		t.Fatalf("MaxAbs = %v", m)
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
