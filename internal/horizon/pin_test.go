package horizon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mtl"
)

// trajectorySHA256 holds, per mode, the sha256 of every step's iteration
// count, cost bits and X bits (little-endian, in step order) for the
// ramped case30 trajectory of TestTrajectoryPinned. It changes only with
// a change meant to move answers: the solver, the warm start or the ramp.
var trajectorySHA256 = map[Mode]string{
	ModeChain:   "1ba491a8c836a0ac2adf594862a20a9ba2db36fb29d7ea89e25145d20915539f",
	ModePredict: "518e65fef265480b6e13362d143a92b030e2d50abf0daa361e1a2f74c9f2dd59",
}

// TestTrajectoryPinned pins a ramp-coupled case30 trajectory bit for bit
// in chain and predict mode, so how a step's instance and start are
// derived cannot move what the trajectory solves.
func TestTrajectoryPinned(t *testing.T) {
	sys := core.MustLoadSystem("case30")
	set, err := sys.GenerateData(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.TrainModel(mtl.VariantSmartPGSim, set, 4, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	traj, err := Synthetic(sys.Case.NB(), 8, 21, 0.03, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ramp := RampFromRange(sys.OPF, 0.2)
	for mode, want := range trajectorySHA256 {
		r := &Runner{Prepared: sys.OPF, Mode: mode, Model: m, RampUp: ramp, RampDown: ramp, Workers: 1}
		res, err := r.Run(traj)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		put := func(u uint64) {
			binary.LittleEndian.PutUint64(b[:], u)
			h.Write(b[:])
		}
		for _, s := range res.Steps {
			put(uint64(s.Iterations))
			put(math.Float64bits(s.Cost))
			if s.Result != nil {
				for _, v := range s.Result.X {
					put(math.Float64bits(v))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s trajectory hash %s, pinned %s", mode, got, want)
		}
	}
}
