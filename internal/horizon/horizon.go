// Package horizon solves multi-period AC-OPF trajectories: sequences of
// load points at a fixed dispatch interval where per-generator ramp
// limits couple step t to step t−1's dispatch (DESIGN.md §10 — the
// paper's workload is i.i.d. draws; real operators solve forecasts).
//
// Each step is a load perturbation of one prepared base instance
// (opf.Perturb) with the previous step's accepted dispatch anchored via
// opf.RebindRamp, and is warm-started per the runner's Mode:
//
//   - ModeChain:   step t starts from step t−1's full primal/dual
//     solution as it is — every step has the base instance's layout —
//     solver-to-solver chaining, no model.
//   - ModePredict: the MTL model predicts a start for every step — the
//     i.i.d. serving behaviour applied per step.
//   - ModeCold:    every step solves from the interior default.
//
// A trajectory is inherently sequential (step t needs step t−1), so
// parallelism fans across trajectories on internal/batch with the
// engine's bit-identical seq-vs-parallel guarantee: each trajectory
// consumes only its own chained state and the one shared predictor,
// which holds no per-call state, so results are invariant under worker
// count and scheduling order.
// The serving layer streams steps one at a time through the same
// Stepper the runner uses, which pins offline and served trajectories
// bit-identical by construction (see internal/serve's /v1/trajectory).
package horizon

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/batch"
	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// Mode selects how each trajectory step is warm-started.
type Mode int

const (
	// ModeChain warm-starts step t from step t−1's accepted solution.
	// Step 0 has no predecessor and solves cold.
	ModeChain Mode = iota
	// ModePredict warm-starts every step from an MTL model prediction.
	ModePredict
	// ModeCold solves every step from the default interior start.
	ModeCold
)

// String names the mode as the -mode flag and the serving API spell it.
func (m Mode) String() string {
	switch m {
	case ModeChain:
		return "chain"
	case ModePredict:
		return "predict"
	case ModeCold:
		return "cold"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode parses "chain", "predict" or "cold".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "chain":
		return ModeChain, nil
	case "predict":
		return ModePredict, nil
	case "cold":
		return ModeCold, nil
	}
	return 0, fmt.Errorf("horizon: unknown mode %q (want chain, predict or cold)", s)
}

// Trajectory is a load trajectory: one per-bus multiplicative load
// factor vector per step, applied to the base case like opf.Perturb.
type Trajectory struct {
	Factors [][]float64
}

// Steps reports the trajectory length.
func (tr *Trajectory) Steps() int { return len(tr.Factors) }

// Synthetic builds the deterministic forecast trajectory used by the
// benchmarks, the CLI and the serving endpoint: a smooth ramp profile
// 1 + amp·sin(2πt/steps) (one diurnal shoulder over the horizon)
// multiplied by per-bus noise uniform in [1−spread, 1+spread]. The
// noise of step t is drawn from stepSeed(seed, t), so the same
// (nb, steps, seed, amp, spread) tuple reproduces the same trajectory
// everywhere — offline, served, and across worker counts.
func Synthetic(nb, steps int, seed int64, amp, spread float64) (*Trajectory, error) {
	if nb < 1 {
		return nil, fmt.Errorf("horizon: synthetic trajectory needs nb >= 1, got %d", nb)
	}
	if steps < 1 {
		return nil, fmt.Errorf("horizon: synthetic trajectory needs steps >= 1, got %d", steps)
	}
	if math.IsNaN(amp) || amp < 0 || amp >= 1 {
		return nil, fmt.Errorf("horizon: ramp amplitude %v out of range [0, 1)", amp)
	}
	if math.IsNaN(spread) || spread < 0 || spread >= 1 {
		return nil, fmt.Errorf("horizon: noise spread %v out of range [0, 1)", spread)
	}
	tr := &Trajectory{Factors: make([][]float64, steps)}
	for t := 0; t < steps; t++ {
		rng := rand.New(rand.NewSource(stepSeed(seed, t)))
		profile := 1 + amp*math.Sin(2*math.Pi*float64(t)/float64(steps))
		f := make([]float64, nb)
		for b := range f {
			f[b] = profile * (1 - spread + 2*spread*rng.Float64())
		}
		tr.Factors[t] = f
	}
	return tr, nil
}

// stepSeed derives the noise seed of step t under base — a splitmix64
// finalization step, so nearby steps get well-separated streams
// regardless of the base seed.
func stepSeed(base int64, t int) int64 {
	z := uint64(base) + uint64(t+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// RampFromRange derives per-step ramp limits as a fraction of each
// unit's dispatch range: frac·(Pmax−Pmin) in pu. The grid model carries
// no ramp-rate data (grid.Gen has only the box limits), so this is the
// package's ramp convention; a unit with an unbounded range gets +Inf
// (unconstrained). frac <= 0 returns nil — ramp coupling disabled.
func RampFromRange(o *opf.OPF, frac float64) la.Vector {
	if o == nil || frac <= 0 {
		return nil
	}
	lay := o.Lay
	xmin, xmax := o.Bounds()
	r := make(la.Vector, lay.NG)
	for g := 0; g < lay.NG; g++ {
		lo, hi := xmin[lay.PgOff+g], xmax[lay.PgOff+g]
		if math.IsInf(lo, -1) || math.IsInf(hi, 1) {
			r[g] = math.Inf(1)
			continue
		}
		r[g] = frac * (hi - lo)
	}
	return r
}

// StepResult is one solved trajectory step.
type StepResult struct {
	Step        int
	Converged   bool
	WarmUsed    bool // the chained/predicted start converged
	ColdRestart bool // a start was tried and failed; accepted result is the cold restart
	Ramped      bool // ramp rows anchored this step to the previous dispatch
	RampBinding int  // ramp-tightened Pg bounds binding at the solution
	Iterations  int  // accepted solve's iterations
	Cost        float64
	PrepTime    time.Duration // Perturb + RebindRamp
	InferTime   time.Duration // model prediction (ModePredict only)
	SolveTime   time.Duration // accepted attempt(s), warm try included
	Result      *opf.Result   // accepted solution; nil when Err is set
	Err         error
}

// Result is one solved trajectory with its aggregate accounting.
type Result struct {
	Mode         Mode
	Steps        []StepResult
	Converged    int // steps that converged
	WarmHits     int // steps whose warm start converged
	ColdRestarts int // steps that fell back to a cold restart
	Iterations   int // total accepted iterations
	SolveTime    time.Duration
	InferTime    time.Duration
	PrepTime     time.Duration
}

func summarize(mode Mode, steps []StepResult) *Result {
	res := &Result{Mode: mode, Steps: steps}
	for i := range steps {
		s := &steps[i]
		if s.Converged {
			res.Converged++
		}
		if s.WarmUsed {
			res.WarmHits++
		}
		if s.ColdRestart {
			res.ColdRestarts++
		}
		res.Iterations += s.Iterations
		res.SolveTime += s.SolveTime
		res.InferTime += s.InferTime
		res.PrepTime += s.PrepTime
	}
	return res
}

// Stepper advances one trajectory a step at a time, holding the chained
// state (the previous step's accepted solution). It is the single
// implementation both the offline Runner and the streaming
// /v1/trajectory endpoint drive, which is what makes served replays
// bit-identical to offline runs by construction. A Stepper is not safe
// for concurrent use: its chained state stays on one goroutine, the
// streaming handler's or the Runner task's. The predictor it is given
// holds no per-trajectory state and is shared with other steppers.
type Stepper struct {
	base     *opf.OPF
	mode     Mode
	pred     opf.Predictor
	up, down la.Vector
	prev     *opf.Result
	step     int
}

// NewStepper builds a stepper over the prepared base instance. up and
// down are per-step ramp limits in pu (len NG, +Inf entries allowed,
// nil = that direction unconstrained); pred supplies predictions for
// ModePredict and is ignored otherwise.
func NewStepper(base *opf.OPF, mode Mode, pred opf.Predictor, up, down la.Vector) (*Stepper, error) {
	if base == nil {
		return nil, fmt.Errorf("horizon: stepper needs a prepared base instance")
	}
	switch mode {
	case ModeChain, ModePredict, ModeCold:
	default:
		return nil, fmt.Errorf("horizon: unknown mode %v", mode)
	}
	if mode == ModePredict && pred == nil {
		return nil, fmt.Errorf("horizon: mode predict needs a predictor")
	}
	ng := base.Lay.NG
	if up != nil && len(up) != ng {
		return nil, fmt.Errorf("horizon: ramp up limits have %d entries, %s has %d generators", len(up), base.Case.Name, ng)
	}
	if down != nil && len(down) != ng {
		return nil, fmt.Errorf("horizon: ramp down limits have %d entries, %s has %d generators", len(down), base.Case.Name, ng)
	}
	return &Stepper{base: base, mode: mode, pred: pred, up: up, down: down}, nil
}

// rampBinding counts Pg bounds tightened by the ramp window and binding
// at x — the steps where the coupling actually constrained dispatch.
func rampBinding(base, cur *opf.OPF, x la.Vector) int {
	if cur == base || x == nil {
		return 0
	}
	lay := base.Lay
	bmin, bmax := base.Bounds()
	cmin, cmax := cur.Bounds()
	n := 0
	for g := 0; g < lay.NG; g++ {
		i := lay.PgOff + g
		switch {
		case cmax[i] < bmax[i] && x[i] > cmax[i]-opf.BindingTol:
			n++
		case cmin[i] > bmin[i] && x[i] < cmin[i]+opf.BindingTol:
			n++
		}
	}
	return n
}

// Step solves the next trajectory step at the given per-bus load
// factors and advances the chained state. On solver error the state is
// left at the last accepted solution, so a later step re-anchors there.
func (s *Stepper) Step(factors []float64) StepResult {
	sr := StepResult{Step: s.step}
	s.step++
	t0 := time.Now()
	inst := s.base.Perturb(factors)
	cur := inst
	if s.prev != nil && (s.up != nil || s.down != nil) { // never on the first step
		lay := s.base.Lay
		prevPg := s.prev.X[lay.PgOff : lay.PgOff+lay.NG]
		r, err := inst.RebindRamp(prevPg, s.up, s.down)
		if err != nil {
			sr.PrepTime = time.Since(t0)
			sr.Err = err
			return sr
		}
		cur = r
		sr.Ramped = true
	}
	sr.PrepTime = time.Since(t0)

	var start *opf.Start
	switch s.mode {
	case ModeChain:
		if s.prev != nil {
			start = &opf.Start{X: s.prev.X, Lam: s.prev.Lam, Mu: s.prev.Mu, Z: s.prev.Z}
		}
	case ModePredict:
		t1 := time.Now()
		start = s.pred.Predict(dataset.InputVector(cur.Case))
		sr.InferTime = time.Since(t1)
	}

	out := cur.SolveWarm(start, opf.Options{})
	sr.SolveTime = out.SolveTime + out.RestartTime
	if out.Err != nil {
		sr.Err = out.Err
		return sr
	}
	acc := out.Result
	sr.WarmUsed = out.WarmAccepted
	sr.ColdRestart = out.Restarted
	sr.Converged = acc.Converged
	sr.Iterations = acc.Iterations
	sr.Cost = acc.Cost
	sr.Result = acc
	sr.RampBinding = rampBinding(s.base, cur, acc.X)
	s.prev = acc
	return sr
}

// Runner solves trajectories over one base grid. ModePredict warm
// starts come from Predictor when set, else from Model
// (mtl.PredictorFor); all in-flight trajectories share the one source.
type Runner struct {
	Prepared  *opf.OPF // the base grid, opf.Prepare'd; required
	Mode      Mode
	Model     *mtl.Model
	Predictor opf.Predictor // used instead of Model when set (tests inject stubs)
	// RampUp and RampDown are per-step ramp limits in pu (len NG; nil =
	// unconstrained). See RampFromRange for the derivation convention.
	RampUp, RampDown la.Vector
	// Workers sizes the batch pool (0 resolves through
	// batch.SetDefaultWorkers, then GOMAXPROCS; 1 is sequential).
	Workers int
}

// RunBatch solves each trajectory start-to-end (steps are sequential
// within a trajectory) and fans the trajectories across the batch
// pool. Results are bit-identical for any worker count: trajectory i
// depends only on its own chained state.
func (r *Runner) RunBatch(trajs []*Trajectory) ([]*Result, error) {
	base := r.Prepared
	if base == nil {
		return nil, fmt.Errorf("horizon: runner needs Prepared")
	}
	nb := base.Lay.NB
	for i, tr := range trajs {
		if tr == nil || tr.Steps() == 0 {
			return nil, fmt.Errorf("horizon: trajectory %d is empty", i)
		}
		for t, f := range tr.Factors {
			if len(f) != nb {
				return nil, fmt.Errorf("horizon: trajectory %d step %d has %d factors, %s has %d buses", i, t, len(f), base.Case.Name, nb)
			}
		}
	}
	// nil when neither is set; NewStepper then rejects ModePredict.
	pred, lay := mtl.PredictorFor(r.Model, r.Predictor, &base.Lay)
	if pred != nil && !base.Lay.Fits(*lay) {
		return nil, fmt.Errorf("horizon: model laid out for NX/NEq/NIq %d/%d/%d, %s has %d/%d/%d",
			lay.NX, lay.NEq, lay.NIq, base.Case.Name, base.Lay.NX, base.Lay.NEq, base.Lay.NIq)
	}
	results := make([]*Result, len(trajs))
	err := batch.Run(len(trajs), r.Workers, func(i int) error {
		st, err := NewStepper(base, r.Mode, pred, r.RampUp, r.RampDown)
		if err != nil {
			return err
		}
		traj := trajs[i]
		steps := make([]StepResult, 0, traj.Steps())
		for _, f := range traj.Factors {
			steps = append(steps, st.Step(f))
		}
		results[i] = summarize(r.Mode, steps)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
