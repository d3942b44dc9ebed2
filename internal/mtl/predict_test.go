package mtl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/nn"
	"repro/internal/opf"
)

// rowMajorInfer is the reference for the serving kernel (the same one
// internal/nn pins nn.Sequential.Infer to): each Linear a dense float32
// dot product per output row, bias first, then every input — zeros
// included — in ascending order.
func rowMajorInfer(s *nn.Sequential, x []float32) []float32 {
	for _, m := range s.Mods {
		switch t := m.(type) {
		case *nn.Linear:
			y := make([]float32, t.Out)
			for o := range y {
				acc := float32(t.B.Val[o])
				for i, xi := range x {
					acc += float32(t.W.Val[o*t.In+i]) * xi
				}
				y[o] = acc
			}
			x = y
		case *nn.ReLU:
			for i, v := range x {
				if v < 0 {
					x[i] = 0
				}
			}
		case *nn.Sigmoid:
			for i, v := range x {
				x[i] = float32(1 / (1 + math.Exp(-float64(v))))
			}
		}
	}
	return x
}

// TestPredictBitIdenticalToRowMajor: a trained model's predictions —
// trunk, hierarchical heads, sigmoid, denormalization — are the ones the
// dense row-major reference chain gives, bit for bit.
func TestPredictBitIdenticalToRowMajor(t *testing.T) {
	_, o, set := case9Data(t, 10)
	m := New(o.Lay, Config{Variant: VariantMTL, Hierarchy: true, Seed: 21})
	if _, err := Train(m, nil, set, TrainConfig{Epochs: 2, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	for _, s := range set.Samples {
		sameStart(t, "trained case9 model", m.predict(s.Input, rowMajorInfer), m.Predict(s.Input))
	}
}

// predictSink keeps BenchmarkPredict's calls from being optimized away.
var predictSink *opf.Start

// densePredictAllocs is what one Predict of the case118-shaped benchmark
// model allocated on the dense row-major kernel the column kernel
// replaced: skipping zeros must not cost an allocation.
const densePredictAllocs = 34

// BenchmarkPredict times one prediction of a case118-shaped Smart-PGSim
// model with random weights. Before timing it fails on any bit
// difference from the row-major reference chain, or on more heap
// allocations per Predict than the dense kernel made.
func BenchmarkPredict(b *testing.B) {
	lay := layoutFor(118, 54, 186)
	m := New(lay, DefaultConfig())
	m.Norm = Normalizer{
		In:  identityRange(2 * lay.NB),
		X:   identityRange(lay.NX),
		Lam: identityRange(lay.NEq),
		Mu:  identityRange(lay.NIq),
		Z:   identityRange(lay.NIq),
	}
	m.Warmup()
	rng := rand.New(rand.NewSource(118))
	in := make(la.Vector, 2*lay.NB)
	for i := range in {
		in[i] = rng.Float64()
	}
	want, got := m.predict(in, rowMajorInfer), m.Predict(in)
	for _, pair := range [][2]la.Vector{{want.X, got.X}, {want.Lam, got.Lam}, {want.Mu, got.Mu}, {want.Z, got.Z}} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				b.Fatalf("prediction entry %d is %v, row-major reference %v", i, pair[1][i], pair[0][i])
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { m.Predict(in) }); n > densePredictAllocs {
		b.Fatalf("Predict allocates %v objects, the dense kernel %d", n, densePredictAllocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predictSink = m.Predict(in)
	}
}
