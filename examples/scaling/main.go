// Scaling: fan one batch of SC-ACOPF scenarios out across worker
// goroutines sharing the trained model — the data-parallel inference
// pattern of the paper's Figure 9, one replica per device there — and
// measure real speedup on this machine plus the modeled 128-worker
// cluster curve.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/scale"
)

func main() {
	sys := core.MustLoadSystem("case9")
	set, err := sys.GenerateData(40, 9)
	if err != nil {
		log.Fatal(err)
	}
	train, val := set.Split(0.8)
	model, err := sys.TrainModel(mtl.VariantSmartPGSim, train, 80, 9, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Build a large scenario batch by tiling the validation inputs.
	inputs := val.Inputs()
	big := la.NewMatrix(2000, inputs.Cols)
	for r := 0; r < big.Rows; r++ {
		copy(big.Row(r), inputs.Row(r%inputs.Rows))
	}

	// Real data parallelism on this machine (all workers on the one model).
	maxW := runtime.GOMAXPROCS(0)
	fmt.Printf("real scenario fan-out on %d-core host (%d scenarios):\n", maxW, big.Rows)
	var t1 time.Duration
	for w := 1; w <= maxW; w *= 2 {
		t, _ := scale.RunParallel(model, big, w)
		if w == 1 {
			t1 = t
		}
		fmt.Printf("  %3d workers: %10s  speedup %.2fx\n", w, t.Round(time.Microsecond), float64(t1)/float64(t))
	}

	// Modeled cluster extrapolation (the paper's 128-GPU experiment).
	tInf := scale.MeasureInference(model, inputs)
	fmt.Printf("\nmodeled cluster strong scaling (10k scenarios, per-inference %v):\n", tInf)
	for _, p := range scale.StrongScaling(tInf, 10000, []int{1, 16, 32, 64, 128}, scale.DefaultCluster()) {
		fmt.Printf("  %3d workers: speedup %6.1fx (ideal %3.0fx, eff %.0f%%)\n",
			p.Workers, p.Speedup, p.Ideal, p.Eff*100)
	}
}
