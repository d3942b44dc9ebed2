package mtl

import (
	"runtime"
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

// tinyModel builds a small model with identity normalization and an
// input it accepts.
func tinyModel() (*Model, la.Vector) {
	lay := opf.Layout{
		NB: 3, NG: 2, NX: 10, NEq: 7, NIq: 8,
		VaOff: 0, VmOff: 3, PgOff: 6, QgOff: 8,
	}
	m := New(lay, Config{Variant: VariantSmartPGSim, Hierarchy: true, Seed: 17})
	m.Norm = Normalizer{
		In:  identityRange(2 * lay.NB),
		X:   identityRange(lay.NX),
		Lam: identityRange(lay.NEq),
		Mu:  identityRange(lay.NIq),
		Z:   identityRange(lay.NIq),
	}
	return m, la.Vector{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
}

// TestClonePredictsIdentically: a clone must reproduce the original's
// predictions exactly (the parallel sweeps rely on replicas being
// interchangeable) while staying independent of the original's weights.
func TestClonePredictsIdentically(t *testing.T) {
	m, in := tinyModel()
	want := m.Predict(in)

	c := m.Clone()
	got := c.Predict(in)
	for _, pair := range []struct{ a, b la.Vector }{
		{want.X, got.X}, {want.Lam, got.Lam}, {want.Mu, got.Mu}, {want.Z, got.Z},
	} {
		if len(pair.a) != len(pair.b) {
			t.Fatalf("length mismatch: %d vs %d", len(pair.a), len(pair.b))
		}
		for i := range pair.a {
			if pair.a[i] != pair.b[i] {
				t.Fatalf("clone prediction differs at %d: %v vs %v", i, pair.a[i], pair.b[i])
			}
		}
	}

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

// TestReplicasAreWarm: the one pool constructor hands out exactly n
// replicas — the model itself plus clones — and every one of them has
// had Warmup applied, so its first prediction allocates no more than
// its second (no float32 cache build inside timed inference). A bare
// Clone is the positive control: its first prediction does pay the
// materialization.
func TestReplicasAreWarm(t *testing.T) {
	m, in := tinyModel()
	bare := m.Clone()
	if first, second := predictMallocs(bare, in), predictMallocs(bare, in); first <= second {
		t.Fatalf("control: an unwarmed clone's first Predict made %d allocations, its second %d — materialization not observable", first, second)
	}

	const n = 3
	pool := m.Replicas(n)
	if pool.Cap() != n {
		t.Fatalf("Cap = %d, want %d", pool.Cap(), n)
	}
	sawOriginal := false
	for i := 0; i < n; i++ {
		r, ok := pool.TryGet()
		if !ok {
			t.Fatalf("pool ran dry after %d of %d replicas", i, n)
		}
		sawOriginal = sawOriginal || r == opf.Predictor(m)
		if first, second := predictMallocs(r, in), predictMallocs(r, in); first != second {
			t.Fatalf("replica %d: first Predict made %d allocations, second %d — replica entered the pool cold", i, first, second)
		}
	}
	if !sawOriginal {
		t.Fatal("the model itself must count as one replica")
	}
	if _, ok := pool.TryGet(); ok {
		t.Fatal("TryGet succeeded on an emptied pool")
	}
	if one := m.Replicas(0); one.Cap() != 1 {
		t.Fatalf("Replicas(0) holds %d replicas, want the model alone", one.Cap())
	}
}
