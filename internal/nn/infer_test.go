package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// inferVsForward runs both paths on the same input and returns the
// largest relative disagreement.
func inferVsForward(t *testing.T, s *Sequential, in []float64) float64 {
	t.Helper()
	x := la.NewMatrix(1, len(in))
	copy(x.Data, in)
	want := s.Forward(x).Row(0)

	x32 := make([]float32, len(in))
	for i, v := range in {
		x32[i] = float32(v)
	}
	got := s.Infer(x32)
	if len(got) != len(want) {
		t.Fatalf("Infer returned %d outputs, Forward %d", len(got), len(want))
	}
	worst := 0.0
	for i := range want {
		d := math.Abs(float64(got[i])-want[i]) / (1 + math.Abs(want[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestInferMatchesForward pins the float32 serving path to the float64
// training path within single-precision rounding, across plain, ReLU
// and sigmoid-terminated stacks and ragged widths that exercise the
// unroll remainder.
func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name       string
		sigmoidOut bool
		widths     []int
	}{
		{"deep-relu", false, []int{37, 64, 51, 23}},
		{"sigmoid-out", true, []int{19, 30, 11}},
		{"single-layer", false, []int{5, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := MLP(rng, tc.sigmoidOut, tc.widths...)
			in := make([]float64, tc.widths[0])
			for i := range in {
				in[i] = rng.NormFloat64()
			}
			if worst := inferVsForward(t, s, in); worst > 1e-5 {
				t.Fatalf("float32 path off by %v relative", worst)
			}
		})
	}
}

// TestInferCacheInvalidation pins the Version protocol: an optimizer
// step after the float32 cache is built must be visible on the next
// Infer (stale caches would silently serve pre-step weights).
func TestInferCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := MLP(rng, false, 8, 12, 4)
	in := make([]float64, 8)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	inferVsForward(t, s, in) // builds the caches

	// One Adam step off a nonzero gradient.
	x := la.NewMatrix(1, 8)
	copy(x.Data, in)
	out := s.Forward(x)
	g := la.NewMatrix(1, 4)
	for i := range g.Data {
		g.Data[i] = out.Data[i] - 1
	}
	s.Backward(g)
	opt := NewAdam(s.Params(), 0.1)
	opt.Step()
	ZeroGrads(s.Params())

	if worst := inferVsForward(t, s, in); worst > 1e-5 {
		t.Fatalf("Infer served stale weights after optimizer step: off by %v", worst)
	}

	// Direct weight copy paths (snapshot load, clone) bump Version too.
	for _, p := range s.Params() {
		for i := range p.Val {
			p.Val[i] *= 1.5
		}
		p.Version++
	}
	if worst := inferVsForward(t, s, in); worst > 1e-5 {
		t.Fatalf("Infer served stale weights after manual bump: off by %v", worst)
	}
}

// rowMajorInfer is the reference the serving kernel is pinned to: each
// Linear a dense float32 dot product per output row, bias first, then
// every input — zeros included — in ascending order.
func rowMajorInfer(s *Sequential, x []float32) []float32 {
	for _, m := range s.Mods {
		switch t := m.(type) {
		case *Linear:
			y := make([]float32, t.Out)
			for o := range y {
				acc := float32(t.B.Val[o])
				for i, xi := range x {
					acc += float32(t.W.Val[o*t.In+i]) * xi
				}
				y[o] = acc
			}
			x = y
		case *ReLU:
			for i, v := range x {
				if v < 0 {
					x[i] = 0
				}
			}
		case *Sigmoid:
			for i, v := range x {
				x[i] = float32(1 / (1 + math.Exp(-float64(v))))
			}
		}
	}
	return x
}

// randomBias gives every Linear of s a nonzero bias, so no output sum
// is exactly zero — the one case where skipping a ±0 term may flip the
// sign of the result.
func randomBias(rng *rand.Rand, s *Sequential) {
	for _, m := range s.Mods {
		if l, ok := m.(*Linear); ok {
			for o := range l.B.Val {
				l.B.Val[o] = rng.NormFloat64()
			}
			l.B.Version++
		}
	}
}

// sparseInput draws n float32 features, a share zeroFrac of them
// exact zeros of either sign.
func sparseInput(rng *rand.Rand, n int, zeroFrac float64) []float32 {
	x := make([]float32, n)
	for i := range x {
		switch r := rng.Float64(); {
		case r < zeroFrac/2:
			x[i] = 0
		case r < zeroFrac:
			x[i] = float32(math.Copysign(0, -1))
		default:
			x[i] = float32(rng.NormFloat64())
		}
	}
	return x
}

// sameBits fails the test unless got and want agree bit for bit.
func sameBits(t *testing.T, what string, want, got []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, reference %d", what, len(got), len(want))
	}
	for o := range want {
		if math.Float32bits(got[o]) != math.Float32bits(want[o]) {
			t.Fatalf("%s: output %d is %v (%#08x), reference %v (%#08x)",
				what, o, got[o], math.Float32bits(got[o]), want[o], math.Float32bits(want[o]))
		}
	}
}

// TestInferBitIdenticalToRowMajor pins the column-major kernel to the
// dense row-major matvec bit for bit: single layers whose widths are not
// multiples of the eight-column pass, fed inputs from all-zero through
// a mix of +0, −0 and nonzero features to fully dense, and whole ReLU
// and sigmoid chains.
func TestInferBitIdenticalToRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, w := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {13, 7}, {37, 29}, {64, 17}, {101, 66}} {
		l := NewLinear(w[0], w[1], rng)
		s := &Sequential{Mods: []Module{l}}
		randomBias(rng, s)
		for _, zeroFrac := range []float64{1, 0.9, 0.5, 0.1, 0} {
			for draw := 0; draw < 4; draw++ {
				x := sparseInput(rng, w[0], zeroFrac)
				what := fmt.Sprintf("%dx%d, zero share %v, draw %d", w[0], w[1], zeroFrac, draw)
				sameBits(t, what, rowMajorInfer(s, append([]float32(nil), x...)), l.infer32(x))
			}
		}
	}
	for _, tc := range []struct {
		sigmoidOut bool
		widths     []int
	}{
		{false, []int{61, 83, 45, 19}},
		{true, []int{23, 130, 9}},
	} {
		s := MLP(rng, tc.sigmoidOut, tc.widths...)
		randomBias(rng, s)
		for _, zeroFrac := range []float64{1, 0.6, 0} {
			x := sparseInput(rng, tc.widths[0], zeroFrac)
			want := rowMajorInfer(s, append([]float32(nil), x...))
			sameBits(t, fmt.Sprintf("MLP %v, zero share %v", tc.widths, zeroFrac), want, s.Infer(x))
		}
	}
}
