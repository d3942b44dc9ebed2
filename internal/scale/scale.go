// Package scale reproduces the multi-node scaling study of Figure 9.
//
// The paper measures data-parallel batch inference of the MTL model on up
// to 128 V100 GPUs (SC-ACOPF scenario fan-out): each device holds a model
// replica, scenarios are split evenly, and the model/data distribution
// step introduces a small load imbalance that bends the strong-scaling
// curve below ideal. Without GPUs, this package (a) runs real
// goroutine-parallel inference for worker counts up to the host's cores,
// and (b) extrapolates the paper's cluster with an analytic model
// calibrated by the measured single-worker inference time — same
// distribution policy, same imbalance mechanism. See DESIGN.md.
package scale

import (
	"math"
	"time"

	"repro/internal/batch"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/nn"
)

// ClusterParams models the distribution overheads of the paper's DGX-1
// cluster runs.
type ClusterParams struct {
	// CopyScenarios is the cost of shipping the model replica one hop
	// (first to the lead device, then peer-to-peer), expressed in units
	// of single-scenario inference time. A relative unit keeps the model
	// meaningful whether the calibrated kernel runs in microseconds (CPU,
	// small grids) or milliseconds (GPU, 300-bus batches).
	CopyScenarios float64
	// ImbalancePerHop is the fractional extra work the slowest replica
	// accumulates per distribution hop (the paper's observed skew).
	ImbalancePerHop float64
}

// DefaultCluster mirrors the qualitative behaviour reported in the
// paper: near-linear strong scaling with visible droop at 128 devices,
// better weak scaling.
func DefaultCluster() ClusterParams {
	return ClusterParams{CopyScenarios: 5, ImbalancePerHop: 0.012}
}

// MeasureInference times single-scenario inference of the model, averaged
// over the given inputs (rows).
func MeasureInference(m *mtl.Model, inputs *la.Matrix) time.Duration {
	if inputs.Rows == 0 {
		return 0
	}
	start := time.Now()
	for r := 0; r < inputs.Rows; r++ {
		m.Predict(inputs.Row(r))
	}
	return time.Since(start) / time.Duration(inputs.Rows)
}

// FlopsPerScenario estimates the floating-point work of one forward pass
// (≈ 2·weights, the dense-layer multiply-accumulate count).
func FlopsPerScenario(m *mtl.Model) float64 {
	return 2 * float64(nn.NumParams(m.Params()))
}

// SimTime predicts the wall time for n scenarios on p workers given the
// calibrated per-scenario time: distribution overhead grows with
// log2(p) hops, and the slowest worker carries the imbalance.
func SimTime(tInf time.Duration, n, p int, c ClusterParams) time.Duration {
	if p < 1 {
		p = 1
	}
	hops := 0.0
	if p > 1 {
		hops = math.Ceil(math.Log2(float64(p)))
	}
	distribution := time.Duration(c.CopyScenarios * float64(tInf) * hops)
	perWorker := math.Ceil(float64(n) / float64(p))
	skew := 1 + c.ImbalancePerHop*hops
	compute := time.Duration(perWorker * float64(tInf) * skew)
	return distribution + compute
}

// StrongPoint is one point of the strong-scaling curve.
type StrongPoint struct {
	Workers int
	Time    time.Duration
	Speedup float64 // vs 1 worker
	Ideal   float64 // = Workers
	Eff     float64 // Speedup / Ideal
}

// StrongScaling sweeps worker counts with a fixed total scenario count
// (the paper uses 10k scenarios, 1→128 GPUs).
func StrongScaling(tInf time.Duration, n int, workers []int, c ClusterParams) []StrongPoint {
	t1 := SimTime(tInf, n, 1, c)
	out := make([]StrongPoint, 0, len(workers))
	for _, p := range workers {
		tp := SimTime(tInf, n, p, c)
		sp := float64(t1) / float64(tp)
		out = append(out, StrongPoint{
			Workers: p, Time: tp, Speedup: sp, Ideal: float64(p), Eff: sp / float64(p),
		})
	}
	return out
}

// WeakPoint is one point of the weak-scaling curve.
type WeakPoint struct {
	Workers   int
	Scenarios int
	Time      time.Duration
	TFlops    float64 // sustained model throughput
	Eff       float64 // vs 1-worker throughput × workers
}

// WeakScaling sweeps worker counts with a fixed per-worker scenario count
// (the paper uses 10k per GPU).
func WeakScaling(tInf time.Duration, perWorker int, flopsPerScenario float64, workers []int, c ClusterParams) []WeakPoint {
	var base float64
	out := make([]WeakPoint, 0, len(workers))
	for i, p := range workers {
		n := perWorker * p
		tp := SimTime(tInf, n, p, c)
		tflops := flopsPerScenario * float64(n) / tp.Seconds() / 1e12
		if i == 0 {
			base = tflops / float64(p)
		}
		out = append(out, WeakPoint{
			Workers: p, Scenarios: n, Time: tp,
			TFlops: tflops, Eff: tflops / (base * float64(p)),
		})
	}
	return out
}

// RunParallel performs real data-parallel inference on the batch engine
// with one task per worker, each predicting its even share of the
// scenarios on the one shared model — where the paper ships a replica to
// each device, goroutines read the same weights. It returns the wall
// time and the scenario count.
func RunParallel(m *mtl.Model, inputs *la.Matrix, workers int) (time.Duration, int) {
	workers = batch.Workers(workers)
	start := time.Now()
	eachChunk(inputs.Rows, workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			m.Predict(inputs.Row(r))
		}
	})
	return time.Since(start), inputs.Rows
}

// eachChunk splits rows [0, count) evenly into one batch task per worker
// and runs fn(lo, hi) for each on a pool of that many workers.
func eachChunk(count, workers int, fn func(lo, hi int)) {
	chunk := (count + workers - 1) / workers
	_ = batch.Run(workers, batch.Options{Workers: workers}, func(t *batch.Task) error {
		lo := t.Index * chunk
		hi := lo + chunk
		if hi > count {
			hi = count
		}
		fn(lo, hi)
		return nil
	})
}
