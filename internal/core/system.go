package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// System bundles a power network with its prepared OPF instance.
type System struct {
	Name string
	Case *grid.Case
	OPF  *opf.OPF
}

// LoadSystem resolves one of the embedded test systems by name
// (grid.Names: "case5" … "case1354").
func LoadSystem(name string) (*System, error) {
	c, err := grid.ByName(name)
	if err != nil {
		return nil, err
	}
	return &System{Name: name, Case: c, OPF: opf.Prepare(c)}, nil
}

// LoadSystems resolves several test systems, in input order.
func LoadSystems(names []string) ([]*System, error) {
	out := make([]*System, len(names))
	for i, name := range names {
		s, err := LoadSystem(name)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// MustLoadSystem panics on failure (the paper systems are known-good).
func MustLoadSystem(name string) *System {
	s, err := LoadSystem(name)
	if err != nil {
		panic(err)
	}
	return s
}

// GenerateData draws n ±10 % load samples and solves them to optimality
// (the offline phase's training-data collection).
func (s *System) GenerateData(n int, seed int64) (*dataset.Set, error) {
	return dataset.Generate(s.Case, dataset.DefaultPreparer, dataset.Options{N: n, Seed: seed})
}

// TrainingDefaults returns the offline-phase sizes that keep dataset
// generation and training tractable for a system of nb buses: the
// number of ±10 % load draws to solve and the training epochs. Small
// systems keep the repository's hundreds-of-samples regime; at paper
// scale both shrink roughly inversely with the bus count — the
// per-draw cold solve grows superlinearly (case300 ≈ 1 s per draw vs
// case9 ≈ 1 ms), so even with the batch engine fanning draws across
// all cores, case300 lands at 160 draws / 80 epochs (minutes, not
// hours; the paper's offline phase uses 10,000 draws on a cluster).
// The cmd/traingen -n, cmd/train -epochs and cmd/scopf -epochs flags
// default to these via their 0 values; explicit flags override.
func TrainingDefaults(nb int) (draws, epochs int) {
	draws = min(max(48000/nb, 150), 600)
	epochs = min(max(24000/nb, 80), 300)
	return draws, epochs
}

// ModelConfig returns the model configuration the offline phase uses
// for a variant. TrainModel builds its models with it, and loaders of
// cmd/train snapshots (LoadModel, cmd/pgsimd) must construct the same
// configuration for the weights to land in identically shaped tensors.
func ModelConfig(variant mtl.Variant, seed int64) mtl.Config {
	cfg := mtl.Config{Variant: variant, Seed: seed}
	switch variant {
	case mtl.VariantMTL:
		cfg.Hierarchy = true
		cfg.DetachPeriod = 4
	case mtl.VariantSmartPGSim:
		cfg.Hierarchy = true
		cfg.DetachPeriod = 4
		cfg.Physics = mtl.DefaultPhysics()
	}
	return cfg
}

// LoadModel restores a model snapshot written by (*mtl.Model).Save (the
// cmd/train output format) into a model configured for this system and
// variant.
func (s *System) LoadModel(variant mtl.Variant, r io.Reader) (*mtl.Model, error) {
	m, err := mtl.Load(s.OPF.Lay, ModelConfig(variant, 0), r)
	if err != nil {
		return nil, fmt.Errorf("core: loading %s model for %s: %w", variant, s.Name, err)
	}
	return m, nil
}

// TrainModel runs the offline training phase for a variant on the given
// training set.
func (s *System) TrainModel(variant mtl.Variant, train *dataset.Set, epochs int, seed int64, logf func(string, ...any)) (*mtl.Model, error) {
	cfg := ModelConfig(variant, seed)
	m := mtl.New(s.OPF.Lay, cfg)
	var phys *mtl.Physics
	if cfg.Physics != (mtl.PhysicsWeights{}) {
		phys = mtl.NewPhysics(s.OPF, dataset.InputVector(s.Case))
	}
	// Small training sets (tests, quick runs) need smaller batches to get
	// enough optimizer steps per epoch.
	bs := 32
	if n := len(train.Samples); n < 8*bs {
		bs = n/8 + 1
	}
	tc := mtl.TrainConfig{Epochs: epochs, BatchSize: bs, Seed: seed, Logf: logf}
	if _, err := mtl.Train(m, phys, train, tc); err != nil {
		return nil, fmt.Errorf("core: training %s on %s: %w", variant, s.Name, err)
	}
	return m, nil
}

// RetrainOptions configures a served-traffic retraining run. The zero
// value is usable: epochs default through TrainingDefaults for the
// system size, the seed defaults to 1.
type RetrainOptions struct {
	// Epochs is the training epoch count; 0 derives it from the system
	// size via TrainingDefaults.
	Epochs int
	// Seed seeds weight initialization and batch shuffling; 0 means 1.
	Seed int64
	// Logf, when non-nil, receives training progress lines.
	Logf func(string, ...any)
}

// minRetrainSamples is the smallest captured corpus worth retraining
// on: below this the optimizer sees too few batches per epoch for the
// heads to move off initialization.
const minRetrainSamples = 16

// Retrain is the retrain-from-captured-pairs entry point of the online
// model lifecycle (DESIGN.md §13): it runs the exact offline training
// path (TrainModel) on a dataset assembled from served-traffic capture
// records instead of synthetic load draws. The set must belong to this
// system (same bus count) and carry at least minRetrainSamples
// converged pairs; epoch defaults follow TrainingDefaults so a capture
// window retrains in the same budget as a bootstrap run.
func (s *System) Retrain(variant mtl.Variant, set *dataset.Set, opt RetrainOptions) (*mtl.Model, error) {
	if set == nil || len(set.Samples) == 0 {
		return nil, fmt.Errorf("core: retrain %s: empty capture set", s.Name)
	}
	if set.NB != s.Case.NB() {
		return nil, fmt.Errorf("core: retrain %s: capture set has %d buses, system has %d", s.Name, set.NB, s.Case.NB())
	}
	if len(set.Samples) < minRetrainSamples {
		return nil, fmt.Errorf("core: retrain %s: %d captured pairs, want at least %d", s.Name, len(set.Samples), minRetrainSamples)
	}
	epochs := opt.Epochs
	if epochs == 0 {
		_, epochs = TrainingDefaults(s.Case.NB())
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	return s.TrainModel(variant, set, epochs, seed, opt.Logf)
}

// WarmOutcome reports one online-phase solve: whether the warm-start
// attempt converged (before any restart), the accepted solution, and
// the component timings of Figure 5.
type WarmOutcome struct {
	Converged   bool // warm-start attempt converged (before restart)
	Iterations  int  // iterations of the accepted solve
	InferTime   time.Duration
	WarmTime    time.Duration // solver time of the warm attempt
	RestartTime time.Duration // cold fallback time (zero if not needed)
	PrepTime    time.Duration
	Cost        float64
	Result      *opf.Result

	// InertiaCorrections counts the KKT inertia corrections of the warm
	// attempt and of its restart, if one ran.
	InertiaCorrections int
}

// SolveWarm executes predict→warm-solve→(fallback restart).
func (s *System) SolveWarm(m opf.Predictor, factors []float64, input []float64) *WarmOutcome {
	return s.SolveWarmInstance(m, s.OPF.Perturb(factors), input)
}

// SolveWarmInstance is SolveWarm on an already derived load instance.
// The serving path uses it to derive each request's instance exactly
// once — the instance's Case provides the model input and the solver's
// problem — instead of cloning and scaling the base case twice.
func (s *System) SolveWarmInstance(m opf.Predictor, o *opf.OPF, input []float64) *WarmOutcome {
	t0 := time.Now()
	start := m.Predict(input)
	infer := time.Since(t0)
	out := o.SolveWarm(start, opf.Options{})
	first, r := out.Result, out.Result
	corrections := r.InertiaCorrections
	if out.Restarted {
		first = out.Warm
		corrections += first.InertiaCorrections
		if out.Err != nil || !r.Converged {
			r = out.Warm // neither attempt converged: the warm one is reported
		}
	}
	return &WarmOutcome{
		// A predictor that offers no start leaves one solve from the
		// default point; that solve is the attempt.
		Converged:   out.WarmAccepted || start == nil && out.Err == nil && r.Converged,
		InferTime:   infer,
		WarmTime:    out.SolveTime,
		RestartTime: out.RestartTime,
		PrepTime:    first.PrepTime,
		Iterations:  r.Iterations,
		Cost:        r.Cost,
		Result:      r,

		InertiaCorrections: corrections,
	}
}
