package mtl

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/la"
	"repro/internal/nn"
)

// saved returns m's snapshot bytes.
func saved(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBits reports the first tensor of two equally long lists whose
// float64 bits differ, or -1.
func sameBits(a, b []la.Vector) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return i, false
		}
		for k := range a[i] {
			if math.Float64bits(a[i][k]) != math.Float64bits(b[i][k]) {
				return i, false
			}
		}
	}
	return -1, true
}

// tensors lists every float64 a snapshot holds: the normalizer's ten
// vectors, then the weights.
func tensors(m *Model) []la.Vector {
	norm := m.Norm
	ps, err := normParams(&norm, m.Lay)
	if err != nil {
		panic(err)
	}
	var out []la.Vector
	for _, p := range append(ps, m.Params()...) {
		out = append(out, p.Val)
	}
	return out
}

// TestSnapshotRoundTripIsByteIdentical: Save → Load → Save writes the
// same bytes, and the loaded model holds the original's normalizer and
// weights bit for bit.
func TestSnapshotRoundTripIsByteIdentical(t *testing.T) {
	m, _ := tinyModel()
	first := saved(t, m)
	l, err := Load(m.Lay, m.Cfg, bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(tensors(m), tensors(l)); !ok {
		t.Fatalf("tensor %d differs after the round trip", i)
	}
	if !bytes.Equal(first, saved(t, l)) {
		t.Fatal("Save → Load → Save changed the snapshot bytes")
	}
}

// TestFingerprintIsSHA256OfSave: the fingerprint is the hash of Save's
// bytes, as the lifecycle registry computes it from the file.
func TestFingerprintIsSHA256OfSave(t *testing.T) {
	m, _ := tinyModel()
	sum := sha256.Sum256(saved(t, m))
	if got, want := m.Fingerprint(), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("Fingerprint %s, sha256 of Save %s", got, want)
	}
}

// TestLoadedModelPredictsBitForBit: a trained model and its reload give
// the same warm start, bit for bit.
func TestLoadedModelPredictsBitForBit(t *testing.T) {
	_, o, set := case9Data(t, 10)
	m := New(o.Lay, Config{Variant: VariantMTL, Hierarchy: true, Seed: 21})
	if _, err := Train(m, nil, set, TrainConfig{Epochs: 2, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	l := reloaded(t, m)
	for _, s := range set.Samples {
		sameStart(t, "reloaded case9 model", m.Predict(s.Input), l.Predict(s.Input))
	}
}

// TestLoadRejectsForeignSnapshots: a snapshot file comes from outside
// the program, so Load names what is wrong with one it cannot use.
func TestLoadRejectsForeignSnapshots(t *testing.T) {
	m, _ := tinyModel()
	good := saved(t, m)

	// The gob format written before the tensor stream.
	var legacy bytes.Buffer
	var vals [][]float64
	for _, p := range m.Params() {
		vals = append(vals, p.Val)
	}
	if err := gob.NewEncoder(&legacy).Encode(struct {
		Norm Normalizer
		Vals [][]float64
	}{m.Norm, vals}); err != nil {
		t.Fatal(err)
	}
	versioned := append([]byte(nil), good...)
	versioned[4]++

	sep := m.Cfg
	sep.Variant, sep.Hierarchy = VariantSeparate, false
	wide := m.Cfg
	wide.HeadHidden = 40

	for _, tc := range []struct {
		name string
		cfg  Config
		snap []byte
		want error
	}{
		{"gob snapshot", m.Cfg, legacy.Bytes(), nn.ErrSnapshotFormat},
		{"other version", m.Cfg, versioned, nn.ErrSnapshotFormat},
		{"empty", m.Cfg, nil, nn.ErrSnapshotTruncated},
		{"cut in the header", m.Cfg, good[:7], nn.ErrSnapshotTruncated},
		{"cut in the lengths", m.Cfg, good[:20], nn.ErrSnapshotTruncated},
		{"cut in the values", m.Cfg, good[:len(good)/2], nn.ErrSnapshotTruncated},
		{"one value short", m.Cfg, good[:len(good)-8], nn.ErrSnapshotTruncated},
		{"wrong tensor count", sep, good, nn.ErrSnapshotShape},
		{"wrong tensor length", wide, good, nn.ErrSnapshotShape},
	} {
		l, err := Load(m.Lay, tc.cfg, bytes.NewReader(tc.snap))
		if !errors.Is(err, tc.want) || l != nil {
			t.Errorf("%s: Load returned (%v, %v), want error %v", tc.name, l != nil, err, tc.want)
		}
	}
}

// TestServedModelHoldsNoGradients: a model as the daemon serves it —
// loaded, warmed, predicting — holds no gradient buffer, and neither
// does a clone; the first Backward of training allocates them.
func TestServedModelHoldsNoGradients(t *testing.T) {
	m, in := tinyModel()
	served := reloaded(t, m)
	served.Warmup()
	served.Predict(in)
	for _, c := range []*Model{served, m.Clone()} {
		for _, p := range c.Params() {
			if p.Grad != nil {
				t.Fatalf("%s holds a %d-value gradient outside training", p.Name, len(p.Grad))
			}
		}
	}

	batch := la.NewMatrix(1, len(in))
	copy(batch.Row(0), in)
	pred := served.Forward(batch)
	served.Backward(pred, false)
	for _, p := range served.Params() {
		if len(p.Grad) != len(p.Val) {
			t.Fatalf("%s: Backward left a %d-value gradient for %d values", p.Name, len(p.Grad), len(p.Val))
		}
	}
}

// TestCloneCopiesValBits: a clone, built without an init draw, holds
// the source's normalizer and weights bit for bit in its own tensors.
func TestCloneCopiesValBits(t *testing.T) {
	m, _ := tinyModel()
	c := m.Clone()
	if i, ok := sameBits(tensors(m), tensors(c)); !ok {
		t.Fatalf("clone tensor %d differs from the source", i)
	}
	for i, p := range c.Params() {
		if &p.Val[0] == &m.Params()[i].Val[0] {
			t.Fatalf("clone shares %s with the source", p.Name)
		}
	}
}

// loadAllocBudget bounds what loading a case118-shaped snapshot may
// allocate: the codec's buffer, the header's lengths and the normalizer,
// far below one weight tensor (the model holds ≈24 MB of weights).
const loadAllocBudget = 1 << 20

// BenchmarkModelLoad loads a case118-shaped Smart-PGSim snapshot with
// random weights from memory into a built model. Before timing it fails
// on any bit that differs from the saved model, or if a load allocates
// more than loadAllocBudget.
func BenchmarkModelLoad(b *testing.B) {
	lay := layoutFor(118, 54, 186)
	src := New(lay, DefaultConfig())
	rng := rand.New(rand.NewSource(118))
	norm, _ := normParams(&src.Norm, lay)
	for _, p := range norm {
		for i := range p.Val {
			p.Val[i] = rng.NormFloat64()
		}
	}
	snap := saved(b, src)
	dst := build(lay, src.Cfg, nil)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := dst.load(bytes.NewReader(snap))
	runtime.ReadMemStats(&after)
	if err != nil {
		b.Fatal(err)
	}
	if i, ok := sameBits(tensors(src), tensors(dst)); !ok {
		b.Fatalf("loaded tensor %d differs from the saved model", i)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > loadAllocBudget {
		b.Fatalf("Load allocated %d bytes for %d bytes of snapshot, budget %d", n, len(snap), loadAllocBudget)
	}

	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.load(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}
