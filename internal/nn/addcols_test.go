package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scalarAddCols is the reference addCols is pinned to: every output
// takes its products in ascending k, each rounded to float32 before it
// is added.
func scalarAddCols(y []float32, w [][]float32, a []float32) {
	for o := range y {
		s := y[o]
		for k := range a {
			s += a[k] * w[k][o]
		}
		y[o] = s
	}
}

// addColsSpecials are the float32 values whose arithmetic a vector
// kernel could get wrong: signed zeros, subnormals, the largest finite
// value, infinities, magnitudes that overflow or underflow when
// multiplied, and NaN.
var addColsSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff), // largest subnormal
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	1e30, -1e30, 1e-30, -1e-30,
	float32(math.NaN()),
	1, -1,
}

// sameBitsOrNaN reports the first output where got and want differ in
// their bits, a NaN matching any NaN; -1 when none does.
func sameBitsOrNaN(want, got []float32) int {
	for o := range want {
		w, g := want[o], got[o]
		if w != w && g != g {
			continue
		}
		if math.Float32bits(w) != math.Float32bits(g) {
			return o
		}
	}
	return -1
}

// checkAddCols runs addCols and the scalar reference on copies of y and
// fails unless they agree bit for bit and addCols wrote nothing past
// len(y).
func checkAddCols(t *testing.T, what string, y []float32, w [][]float32, a []float32) {
	t.Helper()
	var ws [colsPerPass][]float32
	var as [colsPerPass]float32
	copy(ws[:], w)
	copy(as[:], a)
	const guard = 5
	got := append(append([]float32(nil), y...), make([]float32, guard)...)
	for o := len(y); o < len(got); o++ {
		got[o] = 123.25
	}
	want := append([]float32(nil), y...)
	scalarAddCols(want, w, a)
	addCols(got[:len(y)], &ws, &as, len(a))
	if o := sameBitsOrNaN(want, got[:len(y)]); o >= 0 {
		t.Fatalf("%s: output %d is %v (%#08x), scalar %v (%#08x)",
			what, o, got[o], math.Float32bits(got[o]), want[o], math.Float32bits(want[o]))
	}
	for o := len(y); o < len(got); o++ {
		if got[o] != 123.25 {
			t.Fatalf("%s: addCols wrote %v at %d, past the %d outputs", what, got[o], o, len(y))
		}
	}
}

// TestAddColsMatchesScalar pins the column kernel to the scalar loop
// bit for bit for every column count a pass takes and every output
// count up to 67, so every tail length meets every column count, on
// values drawn from addColsSpecials and from the normal distribution.
func TestAddColsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	draw := func(special float64) float32 {
		if rng.Float64() < special {
			return addColsSpecials[rng.Intn(len(addColsSpecials))]
		}
		return float32(rng.NormFloat64())
	}
	for n := 1; n <= colsPerPass; n++ {
		for out := 0; out <= 67; out++ {
			for _, special := range []float64{0, 0.2, 1} {
				y := make([]float32, out)
				w := make([][]float32, n)
				a := make([]float32, n)
				for o := range y {
					y[o] = draw(special)
				}
				for k := range w {
					// Each column starts at its own offset in a longer
					// buffer, as it does inside a layer's weights.
					buf := make([]float32, out+k+1)
					for o := range buf {
						buf[o] = draw(special)
					}
					w[k] = buf[k+1:][:out]
					a[k] = draw(special)
				}
				checkAddCols(t, fmt.Sprintf("n=%d out=%d special=%v", n, out, special), y, w, a)
			}
		}
	}
}

// FuzzAddColsMatchesScalar feeds the column kernel arbitrary float32
// bit patterns — every NaN payload, subnormal and infinity included —
// for any column count and up to 131 outputs, and requires the scalar
// loop's bits.
func FuzzAddColsMatchesScalar(f *testing.F) {
	f.Add(uint8(8), uint8(67), []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0x80, 0x7f})
	f.Add(uint8(3), uint8(5), []byte{0xff, 0xff, 0x7f, 0x7f, 0, 0, 0xc0, 0x7f})
	f.Fuzz(func(t *testing.T, n, out uint8, data []byte) {
		cols, outs := 1+int(n)%colsPerPass, int(out)%132
		vals := make([]float32, max(1, len(data)/4))
		for i := range vals {
			if 4*i+4 <= len(data) {
				vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			}
		}
		next := 0
		draw := func() float32 {
			v := vals[next%len(vals)]
			next++
			return v
		}
		y := make([]float32, outs)
		w := make([][]float32, cols)
		a := make([]float32, cols)
		for o := range y {
			y[o] = draw()
		}
		for k := range w {
			w[k] = make([]float32, outs)
			for o := range w[k] {
				w[k][o] = draw()
			}
			a[k] = draw()
		}
		checkAddCols(t, fmt.Sprintf("n=%d out=%d", cols, outs), y, w, a)
	})
}
