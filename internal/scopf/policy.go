package scopf

import (
	"math"

	"repro/internal/grid"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// The warm/cold dispatch policy. Warm-starting is not uniformly a win:
// the embedded benchmarks show a counter-regime (case30 in
// BENCH_paper.json) where the predicted start costs more solver effort
// than a cold start. The policy replaces the engine's implicit
// "always take an available warm start" rule with a learned decision:
// a cheap per-scenario feature vector feeds a logistic score, and a
// conservatively calibrated threshold decides warm vs cold. Calibration
// picks the smallest threshold that rejects every training sample where
// warm was slower than cold, so on its own training distribution the
// policy never selects a mode worse than the cold baseline
// (TestPolicyNeverSlowerThanCold pins this on recorded case30 logs).

// PolicyFeatures is the cheap per-scenario feature vector the dispatch
// policy scores — everything is known before any solve.
type PolicyFeatures struct {
	Buses     float64 // system size (bus count)
	LoadDev   float64 // ‖factors − 1‖₂: distance of the load draw from nominal
	DroppedIq float64 // inequality rows the outage removed (binding-set distance proxy)
	Pair      float64 // 1 for an N-2 branch pair
	Gen       float64 // 1 when a generator is dropped
}

// featuresOf assembles the feature vector of one scenario on its class.
func featuresOf(c *grid.Case, cl *class, sc Scenario) PolicyFeatures {
	f := PolicyFeatures{
		Buses:     float64(c.NB()),
		DroppedIq: float64(cl.droppedIq),
	}
	dev := 0.0
	for _, x := range sc.Factors {
		d := x - 1
		dev += d * d
	}
	f.LoadDev = math.Sqrt(dev)
	switch cl.kind {
	case "pair":
		f.Pair = 1
	case "gen":
		f.Gen = 1
	case "branch+gen":
		f.Gen = 1
	}
	return f
}

// vector is the model input: bias plus scaled features. Scales keep
// every coordinate O(1) on the embedded systems (≤300 buses) so the
// fixed-step training below is well conditioned.
func (f PolicyFeatures) vector() [6]float64 {
	return [6]float64{1, f.Buses / 100, f.LoadDev, f.DroppedIq / 10, f.Pair, f.Gen}
}

// Policy is a trained warm/cold dispatch rule: logistic score over
// PolicyFeatures with a calibrated acceptance threshold. The fields are
// plain data so a trained policy serializes as JSON.
type Policy struct {
	Weights   [6]float64 `json:"weights"`   // over PolicyFeatures.vector()
	Threshold float64    `json:"threshold"` // accept warm when Score >= Threshold
}

// Score is the logistic probability that the warm start beats cold.
func (p *Policy) Score(f PolicyFeatures) float64 {
	v := f.vector()
	z := 0.0
	for i := range v {
		z += p.Weights[i] * v[i]
	}
	return 1 / (1 + math.Exp(-z))
}

// UseWarm is the dispatch decision: take the warm start only when the
// score clears the calibrated threshold.
func (p *Policy) UseWarm(f PolicyFeatures) bool {
	return p.Score(f) >= p.Threshold
}

// PolicySample is one training row from a screening log: the feature
// vector of a scenario plus the measured solver effort of its warm and
// cold paths. Iteration counts are the cost label — they are
// deterministic where wall-clock is not, and interior-point iterations
// dominate screening time.
type PolicySample struct {
	Feat          PolicyFeatures
	WarmConverged bool // the warm start converged without a cold restart
	WarmIters     int  // iterations of the warm solve (when converged)
	ColdIters     int  // iterations of the cold solve
}

// WarmWins reports whether the warm path was strictly cheaper: it must
// have converged and used fewer iterations than cold.
func (s PolicySample) WarmWins() bool {
	return s.WarmConverged && s.WarmIters < s.ColdIters
}

// WarmHurts reports whether the warm path was strictly more expensive
// than cold: it failed to converge (paying the attempt on top of the
// cold restart) or spent more iterations. Ties are neither wins nor
// hurts — dispatching them warm costs only the prediction, so threshold
// calibration does not force them cold.
func (s PolicySample) WarmHurts() bool {
	return !s.WarmConverged || s.WarmIters > s.ColdIters
}

// CollectPolicySamples builds a training log by screening the scenarios
// twice on the engine's topology classes — once warm, once cold — and
// pairing the outcomes. Scenarios with no usable warm start (cold
// classes, islanding, errors) carry no decision and are skipped.
func CollectPolicySamples(e *Engine, scenarios []Scenario) []PolicySample {
	base := e.Prepared
	if base == nil {
		base = opf.Prepare(e.Base)
	}
	warmEng := &Engine{Base: e.Base, Prepared: base, Model: e.Model,
		Predictor: e.Predictor, Workers: e.Workers, NoProjection: e.NoProjection}
	warm := warmEng.Run(scenarios)
	coldEng := &Engine{Base: e.Base, Prepared: base, Workers: e.Workers}
	cold := coldEng.Run(scenarios)

	_, modelLay := mtl.PredictorFor(e.Model, e.Predictor, &base.Lay)
	classes := map[classKey]*class{}
	var samples []PolicySample
	for i, sc := range scenarios {
		key := sc.key()
		cl, ok := classes[key]
		if !ok {
			cl = warmEng.buildClass(base, modelLay, key)
			classes[key] = cl
		}
		if cl.err != nil || cl.islanded || cl.mode == warmCold {
			continue
		}
		w, c := warm.Outcomes[i], cold.Outcomes[i]
		if w.Err != nil || c.Err != nil || !c.Feasible {
			continue
		}
		samples = append(samples, PolicySample{
			Feat:          featuresOf(base.Case, cl, sc),
			WarmConverged: w.WarmUsed,
			WarmIters:     w.Iterations,
			ColdIters:     c.Iterations,
		})
	}
	return samples
}

// TrainPolicy fits the logistic weights by full-batch gradient descent
// (deterministic: zero init, fixed step and epoch count) and then
// calibrates the threshold conservatively: the smallest value that
// rejects every sample where warm was measured strictly slower than
// cold (WarmHurts). On the training distribution the resulting policy
// never picks a warm start that was measured slower than cold —
// misclassified winners merely fall back to the cold baseline, and
// iteration ties stay eligible for warm dispatch. Returns nil when the
// log has no samples.
func TrainPolicy(samples []PolicySample) *Policy {
	if len(samples) == 0 {
		return nil
	}
	p := &Policy{}
	const (
		epochs = 400
		step   = 0.5
	)
	n := float64(len(samples))
	for epoch := 0; epoch < epochs; epoch++ {
		var grad [6]float64
		for _, s := range samples {
			v := s.Feat.vector()
			y := 0.0
			if s.WarmWins() {
				y = 1
			}
			err := p.Score(s.Feat) - y
			for i := range v {
				grad[i] += err * v[i]
			}
		}
		for i := range p.Weights {
			p.Weights[i] -= step * grad[i] / n
		}
	}
	// Conservative calibration: clear every strictly-losing sample's score.
	const margin = 1e-9
	thr := 0.0
	for _, s := range samples {
		if s.WarmHurts() {
			if sc := p.Score(s.Feat) + margin; sc > thr {
				thr = sc
			}
		}
	}
	p.Threshold = thr
	return p
}
