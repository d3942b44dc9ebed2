package sparse

import (
	"math/rand"
	"testing"
)

// randTriplets draws a random triplet sequence (with duplicates) for an
// n×n matrix; the coordinate sequence is fixed, values vary per pass.
func randTriplets(r *rand.Rand, n, m int) (is, js []int32) {
	for k := 0; k < m; k++ {
		is = append(is, int32(r.Intn(n)))
		js = append(js, int32(r.Intn(n)))
	}
	// Force duplicates so summation order matters.
	for k := 0; k < m/4; k++ {
		t := r.Intn(m)
		is = append(is, is[t])
		js = append(js, js[t])
	}
	return
}

// A compiled slot map stamped with fresh values must equal Builder.ToCSC
// of the same Append sequence bit for bit — same structure, same
// duplicate summation order — on every pass.
func TestCompileSlotsMatchesBuilderBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(30)
		is, js := randTriplets(r, n, 1+r.Intn(120))
		got, pos := CompileSlots(n, n, is, js)
		for pass := 0; pass < 3; pass++ {
			vals := make([]float64, len(is))
			for k := range vals {
				vals[k] = r.NormFloat64()
			}
			b := NewBuilder(n, n)
			clear(got.Val)
			for k := range is {
				b.Append(int(is[k]), int(js[k]), vals[k])
				got.Val[pos[k]] += vals[k]
			}
			want := b.ToCSC()
			if want.NRows != got.NRows || want.NCols != got.NCols {
				t.Fatal("shape mismatch")
			}
			for j := 0; j <= n; j++ {
				if want.ColPtr[j] != got.ColPtr[j] {
					t.Fatalf("trial %d pass %d: ColPtr[%d] %d != %d", trial, pass, j, got.ColPtr[j], want.ColPtr[j])
				}
			}
			for p := range want.RowIdx {
				if want.RowIdx[p] != got.RowIdx[p] {
					t.Fatalf("trial %d pass %d: RowIdx[%d]", trial, pass, p)
				}
				if want.Val[p] != got.Val[p] {
					t.Fatalf("trial %d pass %d: Val[%d] = %v, want %v", trial, pass, p, got.Val[p], want.Val[p])
				}
			}
		}
	}
}

func TestCompileSlotsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CompileSlots(3, 3, []int32{0, 3}, []int32{0, 1})
}
