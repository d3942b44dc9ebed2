package mtl

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/la"
	"repro/internal/opf"
)

// identityRange builds a span-1 Range so normalization is the identity.
func identityRange(n int) Range {
	r := Range{Min: make(la.Vector, n), Max: make(la.Vector, n)}
	for i := range r.Max {
		r.Max[i] = 1
	}
	return r
}

// tinyModel builds a small hierarchical model with identity
// normalization and an input it accepts.
func tinyModel() (*Model, la.Vector) {
	return tinyModelOf(Config{Variant: VariantSmartPGSim, Hierarchy: true, Seed: 17})
}

func tinyModelOf(cfg Config) (*Model, la.Vector) {
	lay := opf.Layout{
		NB: 3, NG: 2, NX: 10, NEq: 7, NIq: 8,
		VaOff: 0, VmOff: 3, PgOff: 6, QgOff: 8,
	}
	m := New(lay, cfg)
	m.Norm = Normalizer{
		In:  identityRange(2 * lay.NB),
		X:   identityRange(lay.NX),
		Lam: identityRange(lay.NEq),
		Mu:  identityRange(lay.NIq),
		Z:   identityRange(lay.NIq),
	}
	return m, la.Vector{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
}

// reloaded round-trips m through Save and Load into a fresh model.
func reloaded(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := Load(m.Lay, m.Cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// sameStart reports an error unless two starts agree bit for bit.
func sameStart(t *testing.T, what string, want, got *opf.Start) {
	t.Helper()
	for _, pair := range []struct{ a, b la.Vector }{
		{want.X, got.X}, {want.Lam, got.Lam}, {want.Mu, got.Mu}, {want.Z, got.Z},
	} {
		if len(pair.a) != len(pair.b) {
			t.Errorf("%s: length mismatch: %d vs %d", what, len(pair.a), len(pair.b))
			return
		}
		for i := range pair.a {
			if pair.a[i] != pair.b[i] {
				t.Errorf("%s: prediction differs at %d: %v vs %v", what, i, pair.a[i], pair.b[i])
				return
			}
		}
	}
}

// TestClonePredictsIdentically: a clone must reproduce the original's
// predictions exactly while staying independent of the original's
// weights.
func TestClonePredictsIdentically(t *testing.T) {
	m, in := tinyModel()
	want := m.Predict(in)

	c := m.Clone()
	sameStart(t, "clone", want, c.Predict(in))

	// Weight independence: perturbing the clone must not change the
	// original's prediction.
	c.Params()[0].Val[0] += 100
	after := m.Predict(in)
	for i := range want.X {
		if want.X[i] != after.X[i] {
			t.Fatal("mutating clone weights leaked into the original")
		}
	}
}

// predictMallocs counts the heap allocations of one Predict call.
func predictMallocs(p opf.Predictor, in la.Vector) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Predict(in)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// firstPredictBuilds reports whether m's first prediction pays the
// float32 build. A build allocates three objects per layer, so a cold
// first call exceeds the second by at least 3·layers; what else the
// process allocates meanwhile (exiting batch workers, the collector)
// stays well under one object per layer.
func firstPredictBuilds(m *Model, in la.Vector) bool {
	layers := uint64(len(m.Params()) / 2)
	first, second := predictMallocs(m, in), predictMallocs(m, in)
	return first >= second+layers
}

// TestReplicasAreWarm: a model as it reaches a request — out of Train
// (core.TrainModel, Retrain, and so the lifecycle's swap candidates), or
// out of Load and through Warmup (core.LoadModel, then what serve does at
// registration) — has its float32 weights built, so its first prediction
// pays no conversion: the benchmark's first request and the offline
// sweeps keep it out of timed inference. A bare Clone is the positive
// control for the lazy path: its first prediction does pay it.
func TestReplicasAreWarm(t *testing.T) {
	m, in := tinyModel()
	if !firstPredictBuilds(m.Clone(), in) {
		t.Fatal("control: an unwarmed clone's first Predict shows no float32 build — materialization not observable")
	}

	registered := reloaded(t, m)
	registered.Warmup()
	if firstPredictBuilds(registered, in) {
		t.Fatal("loaded and warmed model built its float32 weights inside the first Predict")
	}

	_, o, set := case9Data(t, 10)
	trained := New(o.Lay, Config{Variant: VariantMTL, Hierarchy: true, Seed: 21})
	if _, err := Train(trained, nil, set, TrainConfig{Epochs: 2, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	if firstPredictBuilds(trained, set.Samples[0].Input) {
		t.Fatal("trained model built its float32 weights inside the first Predict — Train left it cold")
	}
}

// TestPredictConcurrent pins the concurrency contract of Predict: eight
// goroutines released together on one model that has never predicted —
// a fresh Clone and one straight out of Load, so their first use builds
// the float32 weights — race-free under -race and each bit-identical to
// the sequential prediction.
func TestPredictConcurrent(t *testing.T) {
	for _, cfg := range []Config{
		{Variant: VariantSeparate, Seed: 17},
		{Variant: VariantSmartPGSim, Hierarchy: true, Seed: 17},
	} {
		src, in := tinyModelOf(cfg)
		want := src.Predict(in)
		for _, tc := range []struct {
			name string
			m    *Model
		}{{"clone", src.Clone()}, {"load", reloaded(t, src)}} {
			t.Run(cfg.Variant.String()+"/"+tc.name, func(t *testing.T) {
				got := make([]*opf.Start, 8)
				release := make(chan struct{})
				var wg sync.WaitGroup
				for w := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-release
						got[w] = tc.m.Predict(in)
					}()
				}
				close(release)
				wg.Wait()
				for _, st := range got {
					sameStart(t, "concurrent", want, st)
				}
			})
		}
	}
}
