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
// (opf.AdaptStart) instead of falling back to a cold solve. Cross lists
// the scenarios of a sweep, draw by draw, for every caller.
//
// Engine is the package's one screener. The per-scenario-rebuild
// reference it is pinned to — every outage solved on its own smaller
// layout and analyzed privately; every verdict exact, costs to 1e-9,
// iteration drift within a measured ceiling — lives in this package's
// tests, with BenchmarkScreen, which writes BENCH_scopf.json.
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
	Prepared *opf.OPF // the intact system, opf.Prepare'd; required
	Model    *mtl.Model
	// Predictor is used instead of Model when set — the serving daemon
	// lends the version it loaded for the sweep, tests inject stubs. Its
	// predictions are in the base instance's layout.
	Predictor opf.Predictor
	// Workers sizes the batch pool (0 resolves through
	// batch.SetDefaultWorkers, then GOMAXPROCS; 1 is sequential).
	Workers int
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
// the tests' per-scenario reference both reject a scenario through it,
// so they report the same error for the same bad input.
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
// Results are bit-identical for any worker count and scenario order.
func (e *Engine) Run(scenarios []Scenario) *Report {
	base := e.Prepared
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
		classes[key] = buildClass(base, warm, key)
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
func buildClass(base *opf.OPF, warm bool, key classKey) *class {
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
	default:
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
// (opf.SolveWarm) and reports it. Both the engine and the tests'
// per-scenario reference report through it, so their accounting is
// identical by construction.
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

// Cross lists the scenarios of every load draw, draw by draw: the
// intact topology (when intact is set), then each branch outage, each
// generator outage and each N-2 pair, in the order given. Every caller
// builds its scenario list here, so scenario i belongs to draw
// i / (len(result) / len(draws)). Islanding pairs are legal inputs — the
// screen classifies them instead of solving.
func Cross(draws []la.Vector, intact bool, branches, gens []int, pairs [][2]int) []Scenario {
	perDraw := len(branches) + len(gens) + len(pairs)
	if intact {
		perDraw++
	}
	out := make([]Scenario, 0, len(draws)*perDraw)
	for _, f := range draws {
		if intact {
			out = append(out, Scenario{Factors: f, OutBranch: -1})
		}
		for _, l := range branches {
			out = append(out, Scenario{Factors: f, OutBranch: l})
		}
		for _, g := range gens {
			out = append(out, GenScenario(f, g))
		}
		for _, p := range pairs {
			out = append(out, PairScenario(f, p[0], p[1]))
		}
	}
	return out
}

// AllPairs enumerates every branch pair of the contingency list in
// canonical (low, high) order — the N-2 pair set Cross crosses with
// the load draws.
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
