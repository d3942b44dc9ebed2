package mtl

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"repro/internal/la"
	"repro/internal/nn"
)

// saveHash is the Save-based fingerprint: the sha256 of m's snapshot.
func saveHash(t *testing.T, m *Model) string {
	t.Helper()
	sum := sha256.Sum256(saved(t, m))
	return hex.EncodeToString(sum[:])
}

// panicsWith runs f and reports whether it panicked with an error
// wrapping want.
func panicsWith(f func(), want error) (ok bool) {
	defer func() {
		err, _ := recover().(error)
		ok = errors.Is(err, want)
	}()
	f()
	return false
}

// TestReleasedModelPredictsBitForBit: a trained model predicts the same
// warm starts, bit for bit, once its float64 weights are released, and
// holds no float64 weight matrix or gradient after.
func TestReleasedModelPredictsBitForBit(t *testing.T) {
	_, o, set := case9Data(t, 10)
	m := New(o.Lay, Config{Variant: VariantSmartPGSim, Hierarchy: true, Seed: 5})
	if _, err := Train(m, nil, set, TrainConfig{Epochs: 2, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	before := m.Clone()
	m.Release()
	for _, p := range m.Params() {
		if p.Grad != nil || p.Released() != (p.Val == nil) {
			t.Fatalf("%s: %d values, %d gradients after Release", p.Name, len(p.Val), len(p.Grad))
		}
	}
	if m.NumParams() != before.NumParams() {
		t.Fatalf("NumParams %d after Release, %d before", m.NumParams(), before.NumParams())
	}
	for _, s := range set.Samples {
		sameStart(t, "released case9 model", before.Predict(s.Input), m.Predict(s.Input))
	}
}

// TestReleasedModelRefusesMasters: Save, Clone, training and a rebuild
// of the float32 copy after a weight mutation each fail with
// nn.ErrReleased instead of reading weights that are gone.
func TestReleasedModelRefusesMasters(t *testing.T) {
	m, in := tinyModel()
	m.Release()
	if err := m.Save(io.Discard); !errors.Is(err, nn.ErrReleased) {
		t.Errorf("Save of a released model: %v, want nn.ErrReleased", err)
	}
	if !panicsWith(func() { m.Clone() }, nn.ErrReleased) {
		t.Error("Clone of a released model did not fail with nn.ErrReleased")
	}
	batch := la.NewMatrix(1, len(in))
	copy(batch.Row(0), in)
	if !panicsWith(func() { m.Forward(batch) }, nn.ErrReleased) {
		t.Error("Forward through a released model did not fail with nn.ErrReleased")
	}
	m.Predict(in) // the float32 copy still answers
	m.Params()[0].Version++
	if !panicsWith(func() { m.Predict(in) }, nn.ErrReleased) {
		t.Error("rebuilding a released layer after a weight mutation did not fail with nn.ErrReleased")
	}
}

// TestStreamFingerprintMatchesSave: Load hashes the snapshot as it
// streams, and that hash is Fingerprint's answer — equal to the
// Save-based one of the trained model and of the loaded one, and kept
// through Release — until a weight's Version moves.
func TestStreamFingerprintMatchesSave(t *testing.T) {
	_, o, set := case9Data(t, 10)
	trained := New(o.Lay, Config{Variant: VariantMTL, Hierarchy: true, Seed: 3})
	if _, err := Train(trained, nil, set, TrainConfig{Epochs: 2, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	want := saveHash(t, trained)
	if got := trained.Fingerprint(); got != want {
		t.Fatalf("trained model: Fingerprint %s, sha256 of Save %s", got, want)
	}
	l := reloaded(t, trained)
	if l.loaded != want {
		t.Fatalf("loaded model: stream hash %q, want %s", l.loaded, want)
	}
	if got, save := l.Fingerprint(), saveHash(t, l); got != want || save != want {
		t.Fatalf("loaded model: Fingerprint %s, sha256 of its Save %s, want %s", got, save, want)
	}

	released := reloaded(t, trained)
	released.Release()
	if got := released.Fingerprint(); got != want {
		t.Fatalf("released loaded model: Fingerprint %s, want %s", got, want)
	}

	w := l.Params()[0]
	w.Val[0] += 1
	w.Version++
	if got, save := l.Fingerprint(), saveHash(t, l); got == want || got != save {
		t.Fatalf("after a weight change: Fingerprint %s, sha256 of Save %s, stream hash %s", got, save, want)
	}
}
