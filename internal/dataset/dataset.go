// Package dataset generates and stores the training corpus of
// Smart-PGSim: load samples drawn uniformly from [(1−t)·Pd, (1+t)·Pd]
// per bus (the paper uses t = 10 %), each labelled with the exact OPF
// solution (X, λ, µ, Z) and cost collected from the MIPS solver.
package dataset

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/batch"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/opf"
)

// Sample is one labelled problem instance.
type Sample struct {
	// Factors are the per-bus load multipliers that define the instance.
	Factors la.Vector
	// Input is the model input [Pd; Qd] in per unit (2·nb values).
	Input la.Vector
	// Ground-truth solver state.
	X, Lam, Mu, Z la.Vector
	Cost          float64
	Iterations    int
	SolveTime     time.Duration
}

// Set is a labelled dataset for one power system.
type Set struct {
	CaseName string
	NB       int
	Samples  []Sample
	// Failed counts load draws whose cold-start OPF did not converge
	// (excluded from Samples).
	Failed int
}

// Options configures generation.
type Options struct {
	N         int     // number of samples (default 100)
	Variation float64 // load variation t (default 0.10)
	Seed      int64
	// Workers sizes the solve pool; 0 resolves through the batch
	// engine's chain (-workers, then GOMAXPROCS). The sample set is
	// bit-identical for every worker count.
	Workers int
}

// Generate draws Options.N load scenarios around the case's base load and
// solves each to optimality with the cold-start interior-point method,
// fanning the solves out across the batch worker pool. The OPF structure
// (Ybus, rated-branch subset, bounds) is prepared once on the base case
// and derived per perturbation with (*opf.OPF).Perturb, which shares the
// assembled Ybus and constraint structure across all load draws, since
// load scaling leaves it unchanged.
func Generate(c *grid.Case, opt Options) (*Set, error) {
	if opt.N == 0 {
		opt.N = 100
	}
	if opt.Variation == 0 {
		opt.Variation = 0.10
	}
	nb := c.NB()
	// Factors are drawn sequentially from one stream so the scenario set
	// is a pure function of (Seed, N, Variation), independent of workers.
	rng := rand.New(rand.NewSource(opt.Seed))
	factors := make([]la.Vector, opt.N)
	for s := range factors {
		f := make(la.Vector, nb)
		for i := range f {
			f[i] = 1 - opt.Variation + 2*opt.Variation*rng.Float64()
		}
		factors[s] = f
	}

	base := opf.Prepare(c)
	ordered, err := batch.Map(opt.N, opt.Workers, func(i int) (*Sample, error) {
		inst := base.Perturb(factors[i])
		r, err := inst.Solve(nil, opf.Options{})
		if err != nil || !r.Converged {
			return nil, nil // failed draws are counted, not fatal
		}
		return &Sample{
			Factors:    factors[i],
			Input:      InputVector(inst.Case),
			X:          r.X,
			Lam:        r.Lam,
			Mu:         r.Mu,
			Z:          r.Z,
			Cost:       r.Cost,
			Iterations: r.Iterations,
			SolveTime:  r.SolveTime,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	set := &Set{CaseName: c.Name, NB: nb, Samples: make([]Sample, 0, opt.N)}
	for _, s := range ordered {
		if s != nil {
			set.Samples = append(set.Samples, *s)
		} else {
			set.Failed++
		}
	}
	if len(set.Samples) == 0 {
		return nil, fmt.Errorf("dataset: no load draw of %q solved (%d attempts)", c.Name, opt.N)
	}
	return set, nil
}

// InputVector packs the per-unit loads [Pd; Qd] of a case as model input.
func InputVector(c *grid.Case) la.Vector {
	nb := c.NB()
	in := make(la.Vector, 2*nb)
	for i, b := range c.Buses {
		in[i] = b.Pd / c.BaseMVA
		in[nb+i] = b.Qd / c.BaseMVA
	}
	return in
}

// Split partitions the set into train and validation subsets (the paper
// uses 8000/2000). frac is the training fraction in (0,1).
func (s *Set) Split(frac float64) (train, val *Set) {
	if frac <= 0 || frac >= 1 {
		panic("dataset: split fraction must be in (0,1)")
	}
	n := int(float64(len(s.Samples)) * frac)
	if n == 0 {
		n = 1
	}
	if n >= len(s.Samples) {
		n = len(s.Samples) - 1
	}
	train = &Set{CaseName: s.CaseName, NB: s.NB, Samples: s.Samples[:n]}
	val = &Set{CaseName: s.CaseName, NB: s.NB, Samples: s.Samples[n:]}
	return train, val
}

// Save serializes the set with encoding/gob.
func (s *Set) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(s)
}

// Load restores a set saved with Save.
func Load(r io.Reader) (*Set, error) {
	var s Set
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Inputs stacks the sample inputs as a matrix (rows = samples).
func (s *Set) Inputs() *la.Matrix {
	if len(s.Samples) == 0 {
		return la.NewMatrix(0, 0)
	}
	m := la.NewMatrix(len(s.Samples), len(s.Samples[0].Input))
	for r, smp := range s.Samples {
		copy(m.Row(r), smp.Input)
	}
	return m
}

// Stack extracts one target field as a matrix (rows = samples).
func (s *Set) Stack(field func(*Sample) la.Vector) *la.Matrix {
	if len(s.Samples) == 0 {
		return la.NewMatrix(0, 0)
	}
	first := field(&s.Samples[0])
	m := la.NewMatrix(len(s.Samples), len(first))
	for r := range s.Samples {
		copy(m.Row(r), field(&s.Samples[r]))
	}
	return m
}

// MeanIterations reports the average cold-start iteration count — the
// MIPS baseline of Figure 4(b).
func (s *Set) MeanIterations() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	t := 0.0
	for _, smp := range s.Samples {
		t += float64(smp.Iterations)
	}
	return t / float64(len(s.Samples))
}

// MeanSolveTime reports the average cold-start solve time.
func (s *Set) MeanSolveTime() time.Duration {
	if len(s.Samples) == 0 {
		return 0
	}
	var t time.Duration
	for _, smp := range s.Samples {
		t += smp.SolveTime
	}
	return t / time.Duration(len(s.Samples))
}
