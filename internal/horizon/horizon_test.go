package horizon

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/opf"
)

func sameVec(a, b la.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSyntheticTrajectoryDeterministic(t *testing.T) {
	a, err := Synthetic(9, 6, 42, 0.1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Synthetic(9, 6, 42, 0.1, 0.02)
	if a.Steps() != 6 {
		t.Fatalf("steps = %d", a.Steps())
	}
	for s := range a.Factors {
		if !sameVec(a.Factors[s], b.Factors[s]) {
			t.Fatalf("step %d not reproducible", s)
		}
		for _, f := range a.Factors[s] {
			if f <= 0 || math.IsNaN(f) {
				t.Fatalf("step %d has non-positive factor %v", s, f)
			}
		}
	}
	c, _ := Synthetic(9, 6, 43, 0.1, 0.02)
	if sameVec(a.Factors[0], c.Factors[0]) {
		t.Fatal("different seeds produced identical noise")
	}
	for _, bad := range []struct {
		nb, steps   int
		amp, spread float64
	}{
		{0, 6, 0.1, 0.02},
		{9, 0, 0.1, 0.02},
		{9, -3, 0.1, 0.02},
		{9, 6, -0.1, 0.02},
		{9, 6, 1.0, 0.02},
		{9, 6, 0.1, -1},
		{9, 6, math.NaN(), 0.02},
	} {
		if _, err := Synthetic(bad.nb, bad.steps, 1, bad.amp, bad.spread); err == nil {
			t.Fatalf("Synthetic(%+v): want error", bad)
		}
	}
}

// TestStepSeedStable pins the step-seed derivation: changing it would
// silently change every synthetic trajectory. Seed 0, step 0 is the first
// output of the splitmix64 generator seeded with 0.
func TestStepSeedStable(t *testing.T) {
	if got := uint64(stepSeed(0, 0)); got != 0xE220A8397B1DCDAF {
		t.Fatalf("stepSeed(0, 0) = %#x, want the splitmix64 value 0xe220a8397b1dcdaf", got)
	}
	if stepSeed(1, 0) == stepSeed(1, 1) {
		t.Fatal("adjacent step seeds collide")
	}
	if stepSeed(1, 0) == stepSeed(2, 0) {
		t.Fatal("base seed does not separate streams")
	}
}

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeChain, ModePredict, ModeCold} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip %v: got %v, %v", m, got, err)
		}
	}
	if _, err := ParseMode("lukewarm"); err == nil {
		t.Fatal("want error for unknown mode")
	}
}

func TestRampFromRange(t *testing.T) {
	o := opf.Prepare(grid.Case9())
	if RampFromRange(o, 0) != nil || RampFromRange(nil, 0.1) != nil {
		t.Fatal("disabled ramp must be nil")
	}
	r := RampFromRange(o, 0.5)
	if len(r) != o.Lay.NG {
		t.Fatalf("len = %d", len(r))
	}
	xmin, xmax := o.Bounds()
	for g, v := range r {
		want := 0.5 * (xmax[o.Lay.PgOff+g] - xmin[o.Lay.PgOff+g])
		if v != want {
			t.Fatalf("gen %d limit %v, want %v", g, v, want)
		}
	}
}

// TestHorizonChainMatchesSingleShotWarm is the property pinning chain
// mode to the solver: with ramp limits inactive (a full-range window
// covers any step delta, so RebindRamp leaves the bounds bit-identical),
// each chain-mode step must be bit-identical to an independent
// single-shot warm solve of that step's instance from the previous
// step's accepted solution — with the same warm→cold pipeline, since
// case30's documented counter-regime (RESULTS.md) can reject a chained
// start and restart cold; on case9/case14 every chained start must be
// accepted outright.
func TestHorizonChainMatchesSingleShotWarm(t *testing.T) {
	cases := []struct {
		c       *grid.Case
		warmAll bool // every chained start must converge
	}{
		{grid.Case9(), true},
		{grid.Case14(), true},
		{grid.Case30(), false},
	}
	for _, tc := range cases {
		t.Run(tc.c.Name, func(t *testing.T) {
			base := opf.Prepare(tc.c)
			up := RampFromRange(base, 1.0) // window = full box: inactive
			traj, err := Synthetic(base.Lay.NB, 4, 1, 0.03, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			r := &Runner{Prepared: base, Mode: ModeChain, RampUp: up, RampDown: up, Workers: 1}
			res, err := r.Run(traj)
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged != traj.Steps() {
				t.Fatalf("converged %d/%d steps", res.Converged, traj.Steps())
			}
			for s := 1; s < traj.Steps(); s++ {
				prev := res.Steps[s-1].Result
				step := res.Steps[s]
				if tc.warmAll && !step.WarmUsed {
					t.Fatalf("step %d did not accept the chained start", s)
				}
				// Independent derivation of step s's instance and start.
				inst := base.Perturb(traj.Factors[s])
				lay := base.Lay
				ramped, err := inst.RebindRamp(prev.X[lay.PgOff:lay.PgOff+lay.NG], up, up)
				if err != nil {
					t.Fatal(err)
				}
				xmin, xmax := base.Bounds()
				rmin, rmax := ramped.Bounds()
				if !sameVec(xmin, rmin) || !sameVec(xmax, rmax) {
					t.Fatalf("step %d: inactive ramp limits changed the bounds", s)
				}
				start := &opf.Start{X: prev.X, Lam: prev.Lam, Mu: prev.Mu, Z: prev.Z}
				// The same warm→cold pipeline the Stepper runs.
				single, err := ramped.Solve(start, opf.Options{})
				warm := err == nil && single.Converged
				if !warm {
					if single, err = ramped.Solve(nil, opf.Options{}); err != nil {
						t.Fatalf("step %d single-shot solve failed: %v", s, err)
					}
				}
				if warm != step.WarmUsed {
					t.Fatalf("step %d warm acceptance diverges: single-shot %v, chain %v", s, warm, step.WarmUsed)
				}
				if single.Cost != step.Cost || single.Iterations != step.Iterations ||
					!sameVec(single.X, step.Result.X) || !sameVec(single.Lam, step.Result.Lam) ||
					!sameVec(single.Mu, step.Result.Mu) || !sameVec(single.Z, step.Result.Z) {
					t.Fatalf("step %d chain result diverges from single-shot warm solve", s)
				}
			}
		})
	}
}

// TestHorizonSeqVsParallel pins the batch guarantee: trajectory results
// are bit-identical for any worker count, in every mode.
func TestHorizonSeqVsParallel(t *testing.T) {
	base := opf.Prepare(grid.Case9())
	sol, err := base.Solve(nil, opf.Options{})
	if err != nil || !sol.Converged {
		t.Fatal(err)
	}
	pred := &stubPredictor{start: &opf.Start{X: sol.X, Lam: sol.Lam, Mu: sol.Mu, Z: sol.Z}}
	trajs := make([]*Trajectory, 6)
	for i := range trajs {
		tr, err := Synthetic(base.Lay.NB, 3, int64(100+i), 0.08, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		trajs[i] = tr
	}
	up := RampFromRange(base, 0.2)
	for _, mode := range []Mode{ModeChain, ModePredict, ModeCold} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(workers int) []*Result {
				r := &Runner{
					Prepared: base, Mode: mode,
					RampUp: up, RampDown: up, Workers: workers,
				}
				if mode == ModePredict {
					r.Predictor = pred
				}
				out, err := r.RunBatch(trajs)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			sameResults(t, run(1), run(4))
		})
	}
}

// sameResults fails unless two runs of the same trajectories agree bit
// for bit, aggregate by aggregate and step by step.
func sameResults(t *testing.T, seq, par []*Result) {
	t.Helper()
	for i := range seq {
		if seq[i].Converged != par[i].Converged || seq[i].WarmHits != par[i].WarmHits ||
			seq[i].Iterations != par[i].Iterations {
			t.Fatalf("trajectory %d aggregates diverge seq vs parallel", i)
		}
		for s := range seq[i].Steps {
			a, b := seq[i].Steps[s], par[i].Steps[s]
			if a.Cost != b.Cost || a.Iterations != b.Iterations ||
				a.WarmUsed != b.WarmUsed || a.RampBinding != b.RampBinding ||
				(a.Result == nil) != (b.Result == nil) ||
				(a.Result != nil && !sameVec(a.Result.X, b.Result.X)) {
				t.Fatalf("trajectory %d step %d diverges seq vs parallel", i, s)
			}
		}
	}
}

// stubPredictor returns a fixed start and counts its calls; like every
// opf.Predictor it is safe to call from all workers at once.
type stubPredictor struct {
	start *opf.Start
	calls atomic.Int64
}

func (p *stubPredictor) Predict(la.Vector) *opf.Start {
	p.calls.Add(1)
	return &opf.Start{X: p.start.X, Lam: p.start.Lam, Mu: p.start.Mu, Z: p.start.Z}
}

// TestHorizonPredictReplicaAffinity: there are no replicas to be affine
// to — four workers sharing the one predictor produce, step for step,
// what one worker produces, and every step asks it exactly once.
func TestHorizonPredictReplicaAffinity(t *testing.T) {
	base := opf.Prepare(grid.Case9())
	sol, err := base.Solve(nil, opf.Options{})
	if err != nil || !sol.Converged {
		t.Fatal(err)
	}
	pred := &stubPredictor{start: &opf.Start{X: sol.X, Lam: sol.Lam, Mu: sol.Mu, Z: sol.Z}}
	trajs := make([]*Trajectory, 5)
	for i := range trajs {
		tr, err := Synthetic(base.Lay.NB, 3, int64(i), 0.05, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		trajs[i] = tr
	}
	run := func(workers int) []*Result {
		pred.calls.Store(0)
		r := &Runner{Prepared: base, Mode: ModePredict, Predictor: pred, Workers: workers}
		out, err := r.RunBatch(trajs)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pred.calls.Load(), int64(len(trajs)*3); got != want {
			t.Fatalf("workers=%d: %d predictions for %d steps", workers, got, want)
		}
		return out
	}
	seq, par := run(1), run(4)
	sameResults(t, seq, par)
	warm := 0
	for _, res := range par {
		warm += res.WarmHits
	}
	if warm == 0 {
		t.Fatal("no step accepted the predicted start")
	}
}

// TestHorizonRampCouplingBinds drives a steep profile through a tight
// ramp window and checks the coupling does real work: consecutive
// dispatches stay inside the window and some step reports binding rows.
func TestHorizonRampCouplingBinds(t *testing.T) {
	base := opf.Prepare(grid.Case9())
	up := RampFromRange(base, 0.05)
	traj, err := Synthetic(base.Lay.NB, 5, 3, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Prepared: base, Mode: ModeChain, RampUp: up, RampDown: up, Workers: 1}
	res, err := r.Run(traj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged != len(res.Steps) {
		t.Fatalf("converged %d/%d steps", res.Converged, len(res.Steps))
	}
	lay := base.Lay
	binding := 0
	for s := 1; s < len(res.Steps); s++ {
		step := res.Steps[s]
		if !step.Ramped {
			t.Fatalf("step %d not ramp-coupled", s)
		}
		binding += step.RampBinding
		if step.Result == nil || res.Steps[s-1].Result == nil {
			continue
		}
		for g := 0; g < lay.NG; g++ {
			d := step.Result.X[lay.PgOff+g] - res.Steps[s-1].Result.X[lay.PgOff+g]
			if d > up[g]+1e-6 || d < -up[g]-1e-6 {
				t.Fatalf("step %d gen %d moved %v beyond ±%v", s, g, d, up[g])
			}
		}
	}
	if binding == 0 {
		t.Fatal("tight ramp window never bound — coupling is inert")
	}
}

// TestHorizonRunnerRejectsForeignModel: a model laid out for another
// grid is an error before any step, in either direction, never a panic
// inside the network; on its own grid the same model runs.
func TestHorizonRunnerRejectsForeignModel(t *testing.T) {
	sys := map[string]*core.System{}
	models := map[string]*mtl.Model{}
	for _, name := range []string{"case9", "case14"} {
		sys[name] = core.MustLoadSystem(name)
		set, err := sys[name].GenerateData(8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if models[name], err = sys[name].TrainModel(mtl.VariantSmartPGSim, set, 1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{{"case9", "case14"}, {"case14", "case9"}} {
		for _, on := range pair {
			base := sys[on].OPF
			traj, err := Synthetic(base.Lay.NB, 2, 1, 0.05, 0)
			if err != nil {
				t.Fatal(err)
			}
			r := &Runner{Prepared: base, Mode: ModePredict, Model: models[pair[0]], Workers: 1}
			_, err = r.Run(traj)
			if own := on == pair[0]; own != (err == nil) {
				t.Errorf("%s model on %s: error %v", pair[0], on, err)
			}
		}
	}
}

func TestHorizonRunnerValidation(t *testing.T) {
	base := opf.Prepare(grid.Case9())
	good, err := Synthetic(base.Lay.NB, 2, 1, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{Prepared: base, Mode: ModePredict}).Run(good); err == nil {
		t.Fatal("predict mode without a model must error")
	}
	if _, err := (&Runner{Prepared: base, Mode: ModeChain}).Run(&Trajectory{}); err == nil {
		t.Fatal("empty trajectory must error")
	}
	if _, err := (&Runner{Prepared: base, Mode: ModeChain}).Run(&Trajectory{Factors: [][]float64{{1, 1}}}); err == nil {
		t.Fatal("short factor vector must error")
	}
	if _, err := (&Runner{Mode: ModeChain}).Run(good); err == nil {
		t.Fatal("runner without a base must error")
	}
	if _, err := NewStepper(base, Mode(99), nil, nil, nil); err == nil {
		t.Fatal("unknown mode must error")
	}
	if _, err := NewStepper(base, ModeChain, nil, la.Vector{1}, nil); err == nil {
		t.Fatal("short ramp vector must error")
	}
}
