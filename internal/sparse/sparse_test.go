package sparse

import (
	"math"
	"testing"

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
	if len(a.Val) != 2 {
		t.Fatalf("NNZ = %d, want 2", len(a.Val))
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

func TestDiagAndIdentity(t *testing.T) {
	d := DiagC([]complex128{1, 2i, 3})
	if d.At(1, 1) != 2i || d.At(0, 1) != 0 {
		t.Fatal("DiagC wrong")
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

func TestComplexBuilderAndOps(t *testing.T) {
	b := NewBuilderC(2, 2)
	b.Append(0, 0, 1+2i)
	b.Append(0, 0, 1i)
	b.Append(1, 0, 2)
	b.Append(0, 1, -1i)
	a := b.ToCSC()
	if len(a.Val) != 3 {
		t.Fatalf("NNZ = %d", len(a.Val))
	}
	if a.At(0, 0) != 1+3i {
		t.Fatalf("dedup: %v", a.At(0, 0))
	}
	y := a.MulVec([]complex128{1, 1})
	if y[0] != 1+2i || y[1] != 2 {
		t.Fatalf("MulVec = %v", y)
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
