package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/mtl"
)

// trainedWeightsSHA256 is the sha256 of every weight's float64 bits,
// little-endian in Params order, after the seeded run of
// TestTrainedWeightsPinned. It changes only with a change meant to move
// training: the init draw, the loss, the optimizer or the data.
const trainedWeightsSHA256 = "25034ac70a440b356940b6fd41ef15ece5a725b0cd9223d248d958c33e27088f"

// TestTrainedWeightsPinned pins a short seeded Smart-PGSim training run
// (physics losses, hierarchy, detach steps) bit for bit, so how the
// model's tensors are built and its gradients allocated cannot move
// what training produces.
func TestTrainedWeightsPinned(t *testing.T) {
	sys := loadCase9(t)
	set, err := sys.GenerateData(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.TrainModel(mtl.VariantSmartPGSim, set, 4, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, p := range m.Params() {
		for _, v := range p.Val {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != trainedWeightsSHA256 {
		t.Fatalf("trained weights hash %s, pinned %s", got, trainedWeightsSHA256)
	}
}
