package main

import (
	"fmt"

	"repro/internal/core"
)

// pool is the seeded request pool of one workload: per-bus load factors
// of the first solvable ±10 % draws, with the cold-start optimum of each
// as the reference the served cost is held against.
//
// Draws go through GenerateData because a raw draw is not always a
// solvable problem: on case30 more than a third of ±10 % draws run the
// cold solver into its iteration limit, which would turn the workload
// into a benchmark of that limit.
type pool struct {
	factors [][]float64
	refCost []float64
	drawn   int
	dropped int // draws the cold solver could not solve
}

// trainSeed is the data seed bench_test.go trains the paper-profile
// models with; the pool must not replay the training draws.
func trainSeed(sys *core.System) int64 { return 42 + int64(sys.Case.NB()) }

// poolSeed maps the benchmark seed to the pool's data seed, never the
// training-data seed of the system.
func poolSeed(seed, train int64) int64 {
	s := seed + 1_000_003
	if s == train {
		s = -s
	}
	return s
}

// newPool draws 2·size load samples and keeps the first size solvable
// ones.
func newPool(sys *core.System, seed int64, size int) (*pool, error) {
	set, err := sys.GenerateData(2*size, poolSeed(seed, trainSeed(sys)))
	if err != nil {
		return nil, fmt.Errorf("pool for %s: %w", sys.Name, err)
	}
	if len(set.Samples) < size {
		return nil, fmt.Errorf("pool for %s: only %d of %d draws are solvable, need %d", sys.Name, len(set.Samples), 2*size, size)
	}
	p := &pool{drawn: 2 * size, dropped: set.Failed}
	for _, s := range set.Samples[:size] {
		p.factors = append(p.factors, s.Factors)
		p.refCost = append(p.refCost, s.Cost)
	}
	return p, nil
}

// contingencyWindow is the branch outages of screening request i: the
// perWindow entries of cons from perWindow·i on, wrapping around, so
// ⌈len(cons)/perWindow⌉ consecutive requests cover every outage.
func contingencyWindow(cons []int, i, perWindow int) []int {
	w := make([]int, perWindow)
	for k := range w {
		w[k] = cons[(perWindow*i+k)%len(cons)]
	}
	return w
}
