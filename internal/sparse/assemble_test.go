package sparse

import (
	"math/rand"
	"testing"
)

// randTriplets draws a random triplet sequence (with duplicates) for an
// n×n matrix; the coordinate sequence is fixed, values vary per pass.
func randTriplets(r *rand.Rand, n, m int) (is, js []int) {
	for k := 0; k < m; k++ {
		is = append(is, r.Intn(n))
		js = append(js, r.Intn(n))
	}
	// Force duplicates so summation order matters.
	for k := 0; k < m/4; k++ {
		t := r.Intn(m)
		is = append(is, is[t])
		js = append(js, js[t])
	}
	return
}

// The compile pass, the stamp pass, and Builder.ToCSC must produce
// bit-identical matrices for the same append sequence: same structure,
// same duplicate summation order.
func TestAssemblerMatchesBuilderBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(30)
		is, js := randTriplets(r, n, 1+r.Intn(120))
		asm := NewAssembler(n, n)
		for pass := 0; pass < 3; pass++ { // pass 0 compiles, 1..2 stamp
			vals := make([]float64, len(is))
			for k := range vals {
				vals[k] = r.NormFloat64()
			}
			b := NewBuilder(n, n)
			asm.Begin()
			for k := range is {
				b.Append(is[k], js[k], vals[k])
				asm.Append(is[k], js[k], vals[k])
			}
			want, got := b.ToCSC(), asm.Finish()
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

// A pass that deviates from the compiled sequence must recompile and
// still produce the right matrix — correctness never depends on the
// pattern actually being fixed.
func TestAssemblerRecompilesOnDeviation(t *testing.T) {
	asm := NewAssembler(3, 3)
	asm.Begin()
	asm.Append(0, 0, 1)
	asm.Append(1, 1, 2)
	asm.Finish()

	asm.Begin()
	asm.Append(0, 0, 5)
	asm.Append(2, 1, 7) // different coordinate than the compiled pass
	asm.Append(2, 2, 9) // and longer
	m := asm.Finish()
	if m.At(0, 0) != 5 || m.At(2, 1) != 7 || m.At(2, 2) != 9 || m.At(1, 1) != 0 {
		t.Fatalf("recompiled matrix wrong: %+v", m)
	}

	// And the next matching pass re-enters stamp mode.
	asm.Begin()
	asm.Append(0, 0, 1)
	asm.Append(2, 1, 2)
	asm.Append(2, 2, 3)
	m = asm.Finish()
	if m.At(0, 0) != 1 || m.At(2, 1) != 2 || m.At(2, 2) != 3 {
		t.Fatalf("stamped matrix wrong: %+v", m)
	}
}

// AppendCSC block assembly must match the Builder primitive.
func TestAssemblerAppendCSC(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	src, _ := randPatternPair(r, 6)
	for pass := 0; pass < 2; pass++ {
		b := NewBuilder(14, 14)
		asm := NewAssembler(14, 14)
		asm.Begin()
		for _, c := range []struct {
			ro, co int
			s      float64
		}{{0, 0, 1}, {6, 6, -2}, {8, 0, 0.5}} {
			b.AppendCSC(c.ro, c.co, c.s, src)
			asm.AppendCSC(c.ro, c.co, c.s, src)
		}
		want, got := b.ToCSC(), asm.Finish()
		for j := 0; j < 14; j++ {
			for i := 0; i < 14; i++ {
				if want.At(i, j) != got.At(i, j) {
					t.Fatalf("(%d,%d): %v != %v", i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// AppendOuter must be bit-identical to the per-entry Append sequence it
// replaces — same coordinates, same product grouping, same duplicate
// summation order — on both the compile pass and the stamp passes.
func TestAssemblerAppendOuterMatchesAppend(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(20)
		// A few sparse "rows": sorted unique column sets with values.
		type row struct {
			cols []int32
			vals []float64
			w    float64
		}
		var rowsIn []row
		for len(rowsIn) < 3+r.Intn(5) {
			m := 1 + r.Intn(5)
			seen := map[int32]bool{}
			var cs []int32
			for len(cs) < m {
				c := int32(r.Intn(n))
				if !seen[c] {
					seen[c] = true
					cs = append(cs, c)
				}
			}
			vs := make([]float64, m)
			for i := range vs {
				vs[i] = r.NormFloat64()
			}
			rowsIn = append(rowsIn, row{cs, vs, r.Float64() + 0.5})
		}
		asm := NewAssembler(n, n)
		for pass := 0; pass < 3; pass++ { // pass 0 compiles, 1..2 stamp
			b := NewBuilder(n, n)
			asm.Begin()
			for _, rw := range rowsIn {
				// Refresh values each pass so a stale stamp would show.
				for i := range rw.vals {
					rw.vals[i] = r.NormFloat64()
				}
				for p1 := range rw.cols {
					v1 := rw.w * rw.vals[p1]
					for p2 := range rw.cols {
						b.Append(int(rw.cols[p1]), int(rw.cols[p2]), v1*rw.vals[p2])
					}
				}
				asm.AppendOuter(rw.w, rw.cols, rw.vals)
			}
			want, got := b.ToCSC(), asm.Finish()
			for j := 0; j <= n; j++ {
				if want.ColPtr[j] != got.ColPtr[j] {
					t.Fatalf("trial %d pass %d: ColPtr[%d]", trial, pass, j)
				}
			}
			for p := range want.RowIdx {
				if want.RowIdx[p] != got.RowIdx[p] || want.Val[p] != got.Val[p] {
					t.Fatalf("trial %d pass %d: entry %d = (%d,%v), want (%d,%v)",
						trial, pass, p, got.RowIdx[p], got.Val[p], want.RowIdx[p], want.Val[p])
				}
			}
		}
	}
}

// An AppendOuter call whose coordinates deviate mid-product from the
// compiled sequence must abandon the partial stamp and recompile to the
// correct matrix.
func TestAssemblerAppendOuterDeviation(t *testing.T) {
	asm := NewAssembler(5, 5)
	compilePass := func(cols []int32, vals []float64, w float64) *CSC {
		asm.Begin()
		asm.Append(0, 0, 1)
		asm.AppendOuter(w, cols, vals)
		asm.Append(4, 4, 2)
		return asm.Finish()
	}
	compilePass([]int32{1, 3}, []float64{2, 5}, 1) // compile
	compilePass([]int32{1, 3}, []float64{2, 5}, 1) // stamp, stays live

	// Deviating column set: the fast path bails partway through the
	// outer product and the recompile must still be right.
	asm.Begin()
	asm.Append(0, 0, 1)
	asm.AppendOuter(3, []int32{1, 2}, []float64{2, 5})
	asm.Append(4, 4, 2)
	m := asm.Finish()
	checks := []struct {
		i, j int
		v    float64
	}{
		{0, 0, 1}, {4, 4, 2},
		{1, 1, 3 * 2 * 2}, {1, 2, 3 * 2 * 5}, {2, 1, 3 * 5 * 2}, {2, 2, 3 * 5 * 5},
	}
	for _, c := range checks {
		if got := m.At(c.i, c.j); got != c.v {
			t.Fatalf("after deviation: At(%d,%d) = %v, want %v", c.i, c.j, got, c.v)
		}
	}
	if m.At(3, 3) != 0 || m.At(1, 3) != 0 {
		t.Fatal("stale entries from the compiled pattern survived the recompile")
	}

	// The next matching pass re-enters stamp mode with correct values.
	asm.Begin()
	asm.Append(0, 0, 7)
	asm.AppendOuter(1, []int32{1, 2}, []float64{1, 1})
	asm.Append(4, 4, 9)
	m = asm.Finish()
	if m.At(0, 0) != 7 || m.At(1, 2) != 1 || m.At(4, 4) != 9 {
		t.Fatalf("stamped matrix wrong after recompile: %+v", m)
	}
}

// The steady-state stamp path must not allocate: this is what keeps the
// warm MIPS iteration loop allocation-free.
func TestAssemblerStampAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := rand.New(rand.NewSource(29))
	is, js := randTriplets(r, 40, 400)
	vals := make([]float64, len(is))
	for k := range vals {
		vals[k] = r.NormFloat64()
	}
	outerCols := []int32{3, 17, 31}
	outerVals := []float64{1.5, -2, 0.25}
	asm := NewAssembler(40, 40)
	stamp := func() {
		asm.Begin()
		for k := range is {
			asm.Append(is[k], js[k], vals[k])
		}
		asm.AppendOuter(0.5, outerCols, outerVals)
		asm.Finish()
	}
	stamp() // compile
	if n := testing.AllocsPerRun(100, stamp); n != 0 {
		t.Fatalf("stamp pass allocates %v times per run, want 0", n)
	}
}
