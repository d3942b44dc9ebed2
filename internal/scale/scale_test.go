package scale

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/opf"
)

func smallModel(t *testing.T) (*mtl.Model, *la.Matrix) {
	t.Helper()
	c := grid.Case9()
	o := opf.Prepare(c)
	set, err := dataset.Generate(c, dataset.DefaultPreparer, dataset.Options{N: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mtl.Config{Variant: mtl.VariantMTL, Hierarchy: true, Seed: 5}
	m := mtl.New(o.Lay, cfg)
	if _, err := mtl.Train(m, nil, set, mtl.TrainConfig{Epochs: 2, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	return m, set.Inputs()
}

func TestSimTimeMonotone(t *testing.T) {
	c := DefaultCluster()
	tInf := time.Millisecond
	prev := SimTime(tInf, 10000, 1, c)
	for _, p := range []int{2, 4, 8, 16, 32, 64, 128} {
		cur := SimTime(tInf, 10000, p, c)
		if cur >= prev {
			t.Fatalf("time did not decrease at p=%d: %v >= %v", p, cur, prev)
		}
		prev = cur
	}
}

func TestStrongScalingShape(t *testing.T) {
	pts := StrongScaling(time.Millisecond, 10000, []int{1, 16, 32, 64, 128}, DefaultCluster())
	if pts[0].Speedup != 1 {
		t.Fatalf("baseline speedup = %v", pts[0].Speedup)
	}
	last := pts[len(pts)-1]
	// Near-linear but sub-ideal, as in Fig 9a.
	if last.Speedup < 40 || last.Speedup >= last.Ideal {
		t.Fatalf("128-worker speedup %v not in (40, 128)", last.Speedup)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup <= pts[i-1].Speedup {
			t.Fatal("speedup not monotone")
		}
		if pts[i].Eff > 1 {
			t.Fatal("super-linear efficiency")
		}
	}
}

func TestWeakScalingBetterThanStrong(t *testing.T) {
	workers := []int{1, 16, 32, 64, 128}
	c := DefaultCluster()
	strong := StrongScaling(time.Millisecond, 10000, workers, c)
	weak := WeakScaling(time.Millisecond, 10000, 1e6, workers, c)
	// Paper observation: weak scaling efficiency exceeds strong scaling
	// efficiency at high worker counts (fixed per-worker problem size
	// amortizes the imbalance).
	if weak[len(weak)-1].Eff < strong[len(strong)-1].Eff {
		t.Fatalf("weak eff %v < strong eff %v", weak[len(weak)-1].Eff, strong[len(strong)-1].Eff)
	}
	// Throughput grows with workers.
	for i := 1; i < len(weak); i++ {
		if weak[i].TFlops <= weak[i-1].TFlops {
			t.Fatal("weak throughput not growing")
		}
	}
}

func TestMeasureInferenceAndFlops(t *testing.T) {
	m, in := smallModel(t)
	d := MeasureInference(m, in)
	if d <= 0 {
		t.Fatalf("inference time %v", d)
	}
	if FlopsPerScenario(m) <= 0 {
		t.Fatal("flops estimate not positive")
	}
}

// TestRunParallelRunsWorkersConcurrently replaces the wall-clock check
// "4 workers faster than 1" (it failed 4 runs in 10 on this box, whose
// second core comes and goes) with a deterministic one: the chunks
// RunParallel hands its workers cover every row exactly once, and all of
// them are in flight at the same time — each task waits at a barrier only
// the others can release, so a serialised pool would never get past it.
func TestRunParallelRunsWorkersConcurrently(t *testing.T) {
	const rows, workers = 601, 4
	var mu sync.Mutex
	seen := make([]int, rows)
	var barrier sync.WaitGroup
	barrier.Add(workers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		eachChunk(rows, workers, func(lo, hi int) {
			barrier.Done()
			barrier.Wait()
			mu.Lock()
			defer mu.Unlock()
			for r := lo; r < hi; r++ {
				seen[r]++
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d chunk tasks never ran at the same time", workers)
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("row %d visited %d times", r, n)
		}
	}

	// The same split through RunParallel: every worker predicts on the one
	// model, every scenario counted.
	m, in := smallModel(t)
	big := la.NewMatrix(600, in.Cols)
	for r := 0; r < big.Rows; r++ {
		copy(big.Row(r), in.Row(r%in.Rows))
	}
	t1, n1 := RunParallel(m, big, 1)
	t4, n4 := RunParallel(m, big, workers)
	if n1 != big.Rows || n4 != big.Rows {
		t.Fatal("scenario counts wrong")
	}
	t.Logf("%d workers %v vs 1 worker %v", workers, t4, t1)
}
