// Package scopf implements the security-constrained AC-OPF scenario
// screening that motivates the paper's scaling study (Section VIII-E):
// grid operators evaluate large trees of uncertain scenarios — load
// draws combined with N-1 contingencies — each of which is an
// independent AC-OPF instance. The scenarios are embarrassingly
// parallel, and each one can be warm-started by the Smart-PGSim model
// trained on the intact system.
//
// Screening is topology-aware: Engine groups scenarios by topology
// class (which branches and which generator are out), derives one
// prepared OPF per class from the intact system's prepared structure
// (opf.RebindOutage, opf.RebindGenOutage) and fans the scenarios out on
// the internal/batch worker pool, so every scenario pays only the
// clone+scale+rebind derivation cost. Every contingency is a value edit
// on the intact problem: an outaged branch keeps its admittance entries
// and flow rows as stored zeros, a dropped unit keeps its decoupled
// columns. So every class — branch, pair, generator, branch+generator —
// has the intact layout and the intact KKT pattern, and the whole
// contingency space of a system factors on ONE symbolic analysis, made
// once by whichever scenario factors first (ClassInfo.KKT counts each
// class's own work, Report.KKT the sweep's: factorizations only, no
// analysis). The engine predicts once per load draw, not per scenario, and
// the class fits the intact-system prediction to its outages
// (opf.AdaptStart) instead of falling back to a cold solve. ScreenNaive
// keeps the per-scenario-Prepare reference path, which solves every
// outage on its own smaller layout and analyzes it privately: the engine
// is pinned to it by MatchNaive — every verdict exact, costs to 1e-9,
// iteration drift within a measured ceiling — in this package's tests
// and in BenchmarkScreen (BENCH_scopf.json). It and Engine.NoProjection
// are that reference only; no command selects them.
package scopf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/batch"
	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mips"
	"repro/internal/mtl"
	"repro/internal/opf"
	"repro/internal/sparse"
)

// Scenario is one node of the uncertainty tree: a load draw plus an
// optional topology perturbation — a branch outage, an N-2 branch pair,
// a generator outage, or a branch+generator combination.
//
// OutBranch keeps its historic encoding (-1 = no contingency). The two
// newer axes are stored 1-based so the struct's zero value still means
// "intact topology" and existing Scenario literals keep their meaning:
// OutBranch2 and OutGen hold 1+index, 0 means none. Use the
// PairScenario/GenScenario constructors and the SecondBranch/OutagedGen
// accessors instead of setting the raw fields.
type Scenario struct {
	Factors   la.Vector // per-bus load multipliers
	OutBranch int       // index into Case.Branches, or -1
	// OutBranch2 is 1+index of the second outaged branch of an N-2
	// pair; 0 (the zero value) means no second outage.
	OutBranch2 int
	// OutGen is 1+index (into Case.Gens) of the dropped generator;
	// 0 (the zero value) means no generator outage.
	OutGen int
}

// SecondBranch returns the second outaged branch of an N-2 pair, or -1.
func (s Scenario) SecondBranch() int { return s.OutBranch2 - 1 }

// OutagedGen returns the dropped generator index, or -1.
func (s Scenario) OutagedGen() int { return s.OutGen - 1 }

// PairScenario builds an N-2 scenario outaging branches b1 and b2.
func PairScenario(factors la.Vector, b1, b2 int) Scenario {
	return Scenario{Factors: factors, OutBranch: b1, OutBranch2: b2 + 1}
}

// GenScenario builds a generator-outage scenario dropping Case.Gens[g].
func GenScenario(factors la.Vector, g int) Scenario {
	return Scenario{Factors: factors, OutBranch: -1, OutGen: g + 1}
}

// Outcome is the result of screening one scenario.
type Outcome struct {
	Scenario   Scenario
	Feasible   bool    // the scenario admits a secure dispatch
	Cost       float64 // $/hr when feasible
	Iterations int     // the accepted solve's, when feasible
	// Spent is every interior-point iteration the scenario cost: a
	// rejected warm attempt's plus the terminal solve's, errored
	// scenarios included (0 when nothing was solved).
	Spent int
	// InertiaCorrections counts the KKT inertia corrections of the same
	// solves: the rejected warm attempt's plus the terminal solve's.
	InertiaCorrections int
	WarmUsed           bool // the model warm start converged (no restart)
	Projected          bool // the warm start was fitted to the outage (opf.AdaptStart)
	// Islanded marks a structurally infeasible scenario: the outage
	// topology splits the network, so no solver was invoked (the
	// scenario is classified, not solved — Iterations stays 0).
	Islanded bool
	// Binding counts the active inequality rows at the accepted solution
	// (slack below opf.BindingTol); /v1/screen reports it per outcome as
	// "binding".
	Binding int
	Err     error // solver/derivation error; nil for a clean infeasible
}

// warmMode is the per-class warm-start policy.
type warmMode int

const (
	warmCold      warmMode = iota // no usable prediction: cold solve only
	warmExact                     // the prediction applies as it is
	warmProjected                 // a rated branch or a unit is out: the class fits the prediction (AdaptStart)
)

func (m warmMode) String() string {
	switch m {
	case warmExact:
		return "exact"
	case warmProjected:
		return "projected"
	}
	return "cold"
}

// ClassInfo describes one topology class of a screening run.
type ClassInfo struct {
	OutBranch  int    // -1 for the intact topology
	OutBranch2 int    // second branch of an N-2 pair, or -1
	OutGen     int    // dropped generator, or -1
	Kind       string // "intact", "branch", "pair", "gen" or "branch+gen"
	Scenarios  int    // scenarios screened in this class
	NIq        int    // inequality rows of the class layout (#µ): the intact system's
	WarmMode   string // "exact", "projected" or "cold"
	Islanded   bool   // the outage splits the network; nothing was solved
	// KKT counts the KKT factorization work of the class's own solves.
	// Orderings and Analyses are zero: every outage class factors on
	// the intact system's analysis (counted on Prepared). Zero for the intact class: it is
	// solved on the system's long-lived cache, whose counters
	// (Prepared.KKTStats) every other user of the system feeds too and
	// no sweep can call its own.
	KKT sparse.CacheStats
}

// Report is the full result of an Engine run: outcomes in scenario
// order plus the topology classes in first-seen order. One prepared OPF
// was derived per class — Scenarios/len(Classes) is the prepare-reuse
// factor.
type Report struct {
	Outcomes []Outcome
	Classes  []ClassInfo
	// KKT is the KKT factorization work of the sweep's outage classes,
	// the sum of Classes[i].KKT: zero analyses and orderings while every
	// outage factors on the intact system's analysis.
	KKT sparse.CacheStats
}

// Engine is the topology-aware screener. Warm starts come from
// Predictor when set, else from Model, else the screen runs cold
// (mtl.PredictorFor); all workers share the one source.
type Engine struct {
	Base     *grid.Case
	Prepared *opf.OPF // prepared base instance; built from Base when nil
	Model    *mtl.Model
	// Predictor is used instead of Model when set — the serving daemon
	// lends the version it loaded for the sweep, tests inject stubs. Its
	// predictions are in the base instance's layout.
	Predictor opf.Predictor
	// Workers sizes the batch pool (0 resolves through
	// batch.SetDefaultWorkers, then GOMAXPROCS; 1 is sequential).
	Workers int
	// NoProjection cold-solves the classes whose start would need
	// adapting (an outaged rated branch or a dropped unit) — the ones
	// the naive reference path solves cold because their fresh Prepare
	// has another layout — so the engine's verdicts match it (the pinning
	// mode).
	NoProjection bool
}

// classKey identifies one topology class: the canonicalized outage
// combination (branch indices ascending, -1 = none).
type classKey struct {
	b1, b2 int // outaged branches, b1 <= b2 when both set, -1 = none
	g      int // outaged generator, -1 = none
}

// key canonicalizes a scenario's outage fields into its topology class.
func (s Scenario) key() classKey {
	b1, b2 := s.OutBranch, s.SecondBranch()
	if b1 < 0 {
		b1 = -1
	}
	if b2 < 0 {
		b2 = -1
	}
	if b1 < 0 && b2 >= 0 {
		b1, b2 = b2, -1
	}
	if b2 >= 0 && b2 < b1 {
		b1, b2 = b2, b1
	}
	if b1 == b2 {
		b2 = -1 // degenerate pair collapses to a single outage
	}
	g := s.OutagedGen()
	if g < 0 {
		g = -1
	}
	return classKey{b1: b1, b2: b2, g: g}
}

// check validates the class's outage indices against the case: branch
// ranges first, then generator range and service status. The engine and
// the naive reference both reject a scenario through it, so they report
// the same error for the same bad input.
func (k classKey) check(c *grid.Case) error {
	for _, b := range []int{k.b1, k.b2} {
		if b >= len(c.Branches) {
			return fmt.Errorf("scopf: outage branch %d outside %d branches", b, len(c.Branches))
		}
	}
	switch {
	case k.g >= len(c.Gens):
		return fmt.Errorf("scopf: outage generator %d outside %d generators", k.g, len(c.Gens))
	case k.g >= 0 && !c.Gens[k.g].Status:
		return fmt.Errorf("scopf: outage generator %d already out of service", k.g)
	}
	return nil
}

// kind names the outage combination of a class.
func (k classKey) kind() string {
	switch {
	case k.g >= 0 && k.b1 >= 0:
		return "branch+gen"
	case k.g >= 0:
		return "gen"
	case k.b2 >= 0:
		return "pair"
	case k.b1 >= 0:
		return "branch"
	}
	return "intact"
}

// class is one prepared topology variant.
type class struct {
	opf      *opf.OPF
	mode     warmMode
	islanded bool   // the outage splits the network; never solved
	kind     string // classKey.kind()
	err      error  // derivation failure (invalid outage index)
}

// Run screens every scenario and returns outcomes in scenario order.
// Results are bit-identical for any worker count and scenario order,
// and — outage warm starts aside (see NoProjection) — agree with the
// ScreenNaive reference as MatchNaive defines.
func (e *Engine) Run(scenarios []Scenario) *Report {
	base := e.Prepared
	if base == nil {
		base = opf.Prepare(e.Base)
	}

	pred, warm := e.predictor(base)

	// One prepared OPF per distinct topology, first-seen order.
	classes := map[classKey]*class{}
	counts := map[classKey]int{}
	var order []classKey
	for _, sc := range scenarios {
		key := sc.key()
		counts[key]++
		if _, ok := classes[key]; ok {
			continue
		}
		classes[key] = e.buildClass(base, warm, key)
		order = append(order, key)
	}

	// One warm start per load draw: the model input is the loads alone,
	// so a draw's intact scenario and all its outages share a prediction,
	// made by whichever of them asks first. A draw is its Factors vector,
	// compared by content.
	draws := map[string]*drawStart{}
	starts := make([]*drawStart, len(scenarios))
	var key []byte
	for i, sc := range scenarios {
		key = key[:0]
		for _, f := range sc.Factors {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(f))
		}
		d := draws[string(key)]
		if d == nil {
			d = new(drawStart)
			draws[string(key)] = d
		}
		starts[i] = d
	}

	out := make([]Outcome, len(scenarios))
	_ = batch.Run(len(scenarios), e.Workers, func(i int) error {
		sc := scenarios[i]
		out[i] = screenClass(classes[sc.key()], pred, starts[i], sc)
		return nil
	})

	rep := &Report{Outcomes: out}
	for _, key := range order {
		cl := classes[key]
		info := ClassInfo{
			OutBranch: key.b1, OutBranch2: key.b2, OutGen: key.g,
			Kind: cl.kind, Scenarios: counts[key],
			WarmMode: cl.mode.String(), Islanded: cl.islanded,
		}
		if cl.opf != nil {
			info.NIq = cl.opf.Lay.NIq
			if cl.opf != base { // derived: the cache and its counters are the class's own
				info.KKT = cl.opf.KKTStats()
				rep.KKT = rep.KKT.Add(info.KKT)
			}
		}
		rep.Classes = append(rep.Classes, info)
	}
	return rep
}

// drawStart is the warm-start prediction of one load draw, made on
// first use and then shared, read-only, by the draw's scenarios.
type drawStart struct {
	once  sync.Once
	start *opf.Start
}

func (d *drawStart) get(pred opf.Predictor, loaded *grid.Case) *opf.Start {
	d.once.Do(func() { d.start = pred.Predict(dataset.InputVector(loaded)) })
	return d.start
}

// predictor returns the engine's warm-start source and whether its
// predictions are laid out for the intact system, hence usable.
func (e *Engine) predictor(base *opf.OPF) (opf.Predictor, bool) {
	pred, lay := mtl.PredictorFor(e.Model, e.Predictor, &base.Lay)
	return pred, pred != nil && base.Lay.Fits(*lay)
}

// buildClass derives the prepared OPF and warm mode of one topology
// class. Branch outages are applied first (ascending), then the
// generator drop.
func (e *Engine) buildClass(base *opf.OPF, warm bool, key classKey) *class {
	cl := &class{kind: key.kind()}
	if cl.err = key.check(base.Case); cl.err != nil {
		return cl
	}

	// Islanding classification on the outage topology view: a scenario
	// whose branch outages split the network is structurally infeasible
	// — classify it instead of wasting solver time.
	var skips []int
	for _, b := range []int{key.b1, key.b2} {
		if b >= 0 && base.Case.Branches[b].Status {
			skips = append(skips, b)
		}
	}
	if len(skips) > 0 && !grid.ConnectedWithout(base.Case, skips) {
		cl.islanded = true
		return cl
	}

	// Derivation chain: base → branch outages → generator drop. Outages
	// of already-inactive branches leave the topology as-is (no step).
	cur := base
	var err error
	for _, b := range skips {
		if cur, err = cur.RebindOutage(b); err != nil {
			cl.err = err
			return cl
		}
	}
	if key.g >= 0 {
		if cur, err = cur.RebindGenOutage(key.g); err != nil {
			cl.err = err
			return cl
		}
	}
	cl.opf = cur
	switch {
	case !warm: // no usable prediction: cold
	case !cur.AdaptsStart():
		cl.mode = warmExact
	case !e.NoProjection:
		cl.mode = warmProjected
	}
	return cl
}

// bindingCount counts inequality rows whose slack is at its bound,
// skipping the rows an outage decoupled (ascending, as opf.Decoupled
// lists them).
func bindingCount(z la.Vector, decoupled []int) int {
	n := 0
	for k, zi := range z {
		if len(decoupled) > 0 && decoupled[0] == k {
			decoupled = decoupled[1:]
		} else if zi < opf.BindingTol {
			n++
		}
	}
	return n
}

// screenClass solves one scenario on its class's prepared structure.
func screenClass(cl *class, pred opf.Predictor, draw *drawStart, sc Scenario) Outcome {
	if cl.err != nil {
		return Outcome{Scenario: sc, Err: cl.err}
	}
	if cl.islanded {
		// Structurally infeasible: classified, never solved.
		return Outcome{Scenario: sc, Islanded: true}
	}
	inst := cl.opf.Perturb(sc.Factors)
	var start *opf.Start
	if cl.mode != warmCold {
		start = inst.AdaptStart(draw.get(pred, inst.Case))
	}
	return solveOutcome(inst, sc, start, cl.mode == warmProjected)
}

// solveOutcome runs one scenario through the warm→cold chain
// (opf.SolveWarm) and reports it. Both the engine and the naive
// reference path report through it, so their accounting is identical by
// construction.
func solveOutcome(inst *opf.OPF, sc Scenario, start *opf.Start, projected bool) Outcome {
	res := Outcome{Scenario: sc}
	out := inst.SolveWarm(start, opf.Options{})
	res.Spent, res.InertiaCorrections = out.Result.Iterations, out.Result.InertiaCorrections
	if out.Warm != nil {
		res.Spent += out.Warm.Iterations
		res.InertiaCorrections += out.Warm.InertiaCorrections
	}
	if out.Err != nil {
		res.Err = out.Err
		return res
	}
	if r := out.Result; r.Converged {
		res.Feasible = true
		res.Cost = r.Cost
		res.Iterations = r.Iterations
		res.WarmUsed = out.WarmAccepted
		res.Projected = projected && out.WarmAccepted
		res.Binding = bindingCount(r.Z, inst.Decoupled())
	}
	return res
}

// ScreenNaive is the reference screening path: every scenario deep-clones
// the case, re-Normalizes, rebuilds the admittance matrices and layout
// with a fresh opf.Prepare, and warm-starts only when the contingency
// preserves the model's constraint layout (outages of rated branches and
// of units fall back to cold). It mirrors the Engine's full contingency-space
// semantics — validation order, islanding classification, generator and
// N-2 pair outages — and exists as the pinning target and benchmark
// baseline for the Engine, which must agree with it (MatchNaive) when
// NoProjection is set.
func ScreenNaive(base *grid.Case, m *mtl.Model, scenarios []Scenario, workers int) []Outcome {
	out := make([]Outcome, len(scenarios))
	_ = batch.Run(len(scenarios), workers, func(i int) error {
		sc := scenarios[i]
		key := sc.key()
		// Same order as Engine.buildClass: validation, then islanding.
		if err := key.check(base); err != nil {
			out[i] = Outcome{Scenario: sc, Err: err}
			return nil
		}
		c := base.Clone()
		c.ScaleLoads(sc.Factors)
		outaged := false
		for _, b := range []int{key.b1, key.b2} {
			if b >= 0 && c.Branches[b].Status {
				c.Branches[b].Status = false
				outaged = true
			}
		}
		if outaged && !grid.ConnectedWithout(c, nil) {
			out[i] = Outcome{Scenario: sc, Islanded: true}
			return nil
		}
		if key.g >= 0 {
			c.Gens[key.g].Status = false
		}
		if err := c.Normalize(); err != nil {
			out[i] = Outcome{Scenario: sc, Err: err}
			return nil
		}
		o := opf.Prepare(c)
		var start *opf.Start
		if m != nil && o.Lay.Fits(m.Lay) {
			start = m.Predict(dataset.InputVector(o.Case))
		}
		out[i] = solveOutcome(o, sc, start, false)
		return nil
	})
	return out
}

// NaiveCostTol is the relative cost agreement MatchNaive asks of every
// scenario. The reference analyzes each outage pattern privately, so its
// factors round differently from the engine's: where the two take the
// same trajectory the costs differ by ≤ 3e-13.
const NaiveCostTol = 1e-9

// Drift measures how far an engine sweep sits from the ScreenNaive
// outcomes of the same scenarios in the two quantities that are not
// verdicts. The engine solves every outage as a value edit on the intact
// problem and factors it on the intact system's analysis; the reference
// solves the outaged case's own smaller problem on a private analysis.
// The two are equivalent problems, not the same one — the decoupled rows
// and columns of the engine's take part in every Newton step and in the
// convergence tests — so a trajectory, cold ones most of all, can take
// another iteration count on the way to the same optimum (PERFORMANCE.md,
// "Every contingency is a value edit", lists what was measured).
type Drift struct {
	IterDiffs  int     // scenarios that took a different number of iterations
	IterAbs    int     // Σ |iterations − reference iterations| over them
	MaxRelCost float64 // worst relative cost difference
}

// MatchNaive is the one pin of the engine to the ScreenNaive reference,
// for the package tests and BenchmarkScreen alike. It fails unless every
// outcome agrees exactly in Feasible, WarmUsed, Projected, Islanded,
// Binding and error presence, and the sweep's drift stays
// within allow. The zero Drift allows none: every iteration count equal,
// every cost within NaiveCostTol (allow.MaxRelCost below that is read as
// NaiveCostTol). A sweep known to drift passes the drift measured on it,
// so that anything beyond fails. The measured drift is returned.
func MatchNaive(got, ref []Outcome, allow Drift) (Drift, error) {
	var d Drift
	if len(got) != len(ref) {
		return d, fmt.Errorf("scopf: %d outcomes against %d reference outcomes", len(got), len(ref))
	}
	for i := range got {
		g, r := got[i], ref[i]
		if !sameVerdict(g, r) {
			return d, fmt.Errorf("scopf: scenario %d: verdict differs from the reference:\n got %+v\nwant %+v", i, g, r)
		}
		if g.Iterations != r.Iterations {
			d.IterDiffs++
			d.IterAbs += max(g.Iterations-r.Iterations, r.Iterations-g.Iterations)
		}
		d.MaxRelCost = math.Max(d.MaxRelCost, relCostDiff(g, r))
	}
	if d.IterDiffs > allow.IterDiffs || d.IterAbs > allow.IterAbs || d.MaxRelCost > math.Max(allow.MaxRelCost, NaiveCostTol) {
		return d, fmt.Errorf("scopf: drift from the reference %+v exceeds %+v", d, allow)
	}
	return d, nil
}

// sameVerdict reports whether two outcomes of one scenario agree in
// everything that is not a float or an iteration count.
func sameVerdict(got, ref Outcome) bool {
	return got.Feasible == ref.Feasible && got.WarmUsed == ref.WarmUsed &&
		got.Projected == ref.Projected && got.Islanded == ref.Islanded &&
		got.Binding == ref.Binding && (got.Err != nil) == (ref.Err != nil)
}

// relCostDiff is |got.Cost − ref.Cost| relative to the larger of the
// two (0 when both are 0, as for two infeasible outcomes).
func relCostDiff(got, ref Outcome) float64 {
	d := math.Abs(got.Cost - ref.Cost)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(got.Cost), math.Abs(ref.Cost))
}

// Contingencies enumerates the single-branch outages that leave the
// network connected (the N-1 set). Bridges — branches whose loss splits
// the grid — are excluded, matching operational practice of treating
// them separately.
func Contingencies(c *grid.Case) []int {
	var out []int
	for l, br := range c.Branches {
		if !br.Status {
			continue
		}
		if grid.ConnectedWithout(c, []int{l}) {
			out = append(out, l)
		}
	}
	return out
}

// GenContingencies enumerates the single-generator outages that leave
// at least one other unit in service — the generator axis of the N-1
// set. Connectivity is unaffected by a generator drop, so the only
// structural exclusion is losing the last unit (no dispatchable
// generation left, trivially infeasible).
func GenContingencies(c *grid.Case) []int {
	active := 0
	for _, g := range c.Gens {
		if g.Status {
			active++
		}
	}
	var out []int
	if active < 2 {
		return out
	}
	for g, gen := range c.Gens {
		if gen.Status {
			out = append(out, g)
		}
	}
	return out
}

// BuildScenarios crosses load draws with contingencies (plus the intact
// topology) into a scenario list.
func BuildScenarios(draws []la.Vector, contingencies []int) []Scenario {
	out := make([]Scenario, 0, len(draws)*(len(contingencies)+1))
	for _, f := range draws {
		out = append(out, Scenario{Factors: f, OutBranch: -1})
		for _, l := range contingencies {
			out = append(out, Scenario{Factors: f, OutBranch: l})
		}
	}
	return out
}

// BuildGenScenarios crosses load draws with generator outages into a
// scenario list (no intact entries — pair with BuildScenarios).
func BuildGenScenarios(draws []la.Vector, gens []int) []Scenario {
	out := make([]Scenario, 0, len(draws)*len(gens))
	for _, f := range draws {
		for _, g := range gens {
			out = append(out, GenScenario(f, g))
		}
	}
	return out
}

// BuildPairScenarios crosses load draws with N-2 branch pairs into a
// scenario list. Islanding pairs are legal inputs — the screen
// classifies them instead of solving.
func BuildPairScenarios(draws []la.Vector, pairs [][2]int) []Scenario {
	out := make([]Scenario, 0, len(draws)*len(pairs))
	for _, f := range draws {
		for _, p := range pairs {
			out = append(out, PairScenario(f, p[0], p[1]))
		}
	}
	return out
}

// AllPairs enumerates every branch pair of the contingency list in
// canonical (low, high) order — the N-2 pair set BuildPairScenarios
// crosses with the load draws.
func AllPairs(contingencies []int) [][2]int {
	var out [][2]int
	for i := 0; i < len(contingencies); i++ {
		for j := i + 1; j < len(contingencies); j++ {
			a, b := contingencies[i], contingencies[j]
			if b < a {
				a, b = b, a
			}
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// Summary aggregates screening outcomes.
type Summary struct {
	Total, Feasible, WarmConverged int
	Projected                      int // warm starts accepted on a projected layout
	Islanded                       int // scenarios classified as islanding, never solved
	Errors                         int // scenarios whose solve/derivation errored
	// Stalled, IterLimit and Numeric split Errors by the terminal solve's
	// verdict (mips.ErrStalled, ErrMaxIter, ErrNumeric); a derivation
	// error is in none of them.
	Stalled, IterLimit, Numeric int
	// ErrorIterations is the iterations the errored scenarios burnt
	// (Σ Outcome.Spent over them).
	ErrorIterations int
	MeanIterations  float64
	WorstCost       float64 // highest secure-dispatch cost
}

// Summarize reduces outcomes to the operator-facing numbers.
func Summarize(outs []Outcome) Summary {
	var s Summary
	s.Total = len(outs)
	var iters float64
	for _, o := range outs {
		if o.Feasible {
			s.Feasible++
			iters += float64(o.Iterations)
			if o.Cost > s.WorstCost {
				s.WorstCost = o.Cost
			}
		}
		if o.WarmUsed {
			s.WarmConverged++
		}
		if o.Projected {
			s.Projected++
		}
		if o.Islanded {
			s.Islanded++
		}
		if o.Err != nil {
			s.Errors++
			s.ErrorIterations += o.Spent
		}
		switch {
		case errors.Is(o.Err, mips.ErrStalled):
			s.Stalled++
		case errors.Is(o.Err, mips.ErrMaxIter):
			s.IterLimit++
		case errors.Is(o.Err, mips.ErrNumeric):
			s.Numeric++
		}
	}
	if s.Feasible > 0 {
		s.MeanIterations = iters / float64(s.Feasible)
	}
	return s
}
