package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/la"
	"repro/internal/scopf"
)

// errUnknownSystem distinguishes "no such system" (404) from malformed
// requests (400).
var errUnknownSystem = errors.New("unknown system (see GET /v1/systems)")

// SolveRequest is the body of POST /v1/solve. Exactly one of Scale and
// Factors selects the load instance; omitting both solves the base
// case (all factors 1.0).
type SolveRequest struct {
	// System names a loaded system ("case9", …); required.
	System string `json:"system"`
	// Scale applies one uniform load multiplier to every bus.
	Scale *float64 `json:"scale,omitempty"`
	// Factors gives a per-bus load multiplier (length = number of buses).
	Factors []float64 `json:"factors,omitempty"`
	// Cold forces the cold-start path even when a model is loaded.
	Cold bool `json:"cold,omitempty"`
}

// Timing reports the component wall-clock times of one solve in
// microseconds, mirroring the Figure 5 breakdown (prep = problem
// derivation, infer = model forward pass, solve = warm or cold
// interior-point iterations, restart = cold fallback after a failed
// warm start).
type Timing struct {
	PrepUS    int64 `json:"prep_us"`
	InferUS   int64 `json:"infer_us"`
	SolveUS   int64 `json:"solve_us"`
	RestartUS int64 `json:"restart_us"`
	TotalUS   int64 `json:"total_us"`
}

// SolveResponse is the body of a successful POST /v1/solve. Solution
// units match opf.Result: Va in radians, Vm in per unit, Pg in MW, Qg
// in MVAr (one entry per in-service generator).
type SolveResponse struct {
	System string `json:"system"`
	// Path is the pipeline the accepted solution came from: "warm"
	// (warm start converged), "warm_restart" (warm start failed, cold
	// fallback accepted) or "cold" (no model or Cold requested).
	Path string `json:"path"`
	// Converged reports the accepted solve; WarmConverged reports the
	// warm attempt before any restart (the paper's SR numerator).
	Converged     bool `json:"converged"`
	WarmConverged bool `json:"warm_converged"`
	ColdRestarted bool `json:"cold_restarted"`

	Iterations int       `json:"iterations"`
	Cost       float64   `json:"cost"`
	Va         []float64 `json:"va"`
	Vm         []float64 `json:"vm"`
	Pg         []float64 `json:"pg"`
	Qg         []float64 `json:"qg"`

	// ModelVersion identifies the model version that served a warm request
	// (the lifecycle registry version when one is attached); empty on the
	// cold path. Every response carries exactly one version — a request
	// is never split across a hot swap.
	ModelVersion string `json:"model_version,omitempty"`
	// Canary marks a warm request routed to the canary candidate.
	Canary bool `json:"canary,omitempty"`

	Timing Timing `json:"timing"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SystemInfo is one entry of GET /v1/systems.
type SystemInfo struct {
	Name       string `json:"name"`
	Buses      int    `json:"buses"`
	Generators int    `json:"generators"`
	Branches   int    `json:"branches"`
	NLam       int    `json:"nlam"` // equality multipliers (#λ)
	NMu        int    `json:"nmu"`  // inequality multipliers (#µ)
	Model      bool   `json:"model"`
}

// SystemsResponse is the body of GET /v1/systems.
type SystemsResponse struct {
	Systems []SystemInfo `json:"systems"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status  string  `json:"status"`
	Systems int     `json:"systems"`
	UptimeS float64 `json:"uptime_s"`
}

// ScreenRequest is the body of POST /v1/screen: an N-1 contingency
// screening sweep over load draws × branch outages on one system.
// Load draws come either explicitly (Draws) or sampled uniformly in
// [1−Spread, 1+Spread] from Seed (NDraws); omitting both screens the
// base load point. Omitting Contingencies screens every single-branch
// outage that keeps the network connected.
type ScreenRequest struct {
	// System names a loaded system ("case9", …); required.
	System string `json:"system"`
	// Draws lists explicit per-bus load multipliers (each of length =
	// number of buses). Mutually exclusive with NDraws.
	Draws [][]float64 `json:"draws,omitempty"`
	// NDraws samples this many load draws from Seed/Spread.
	NDraws int `json:"n_draws,omitempty"`
	// Seed seeds the draw sampler (deterministic screening).
	Seed int64 `json:"seed,omitempty"`
	// Spread is the half-width of the sampled load band (default 0.1,
	// the paper's ±10 %).
	Spread float64 `json:"spread,omitempty"`
	// Contingencies lists branch indices to outage; nil means the full
	// connected N-1 set. An empty list screens only the intact topology.
	Contingencies []int `json:"contingencies,omitempty"`
	// GenContingencies lists generator indices (into the system's
	// generator table) to outage — the generator axis of the
	// contingency space. Each must name an in-service unit.
	GenContingencies []int `json:"gen_contingencies,omitempty"`
	// AllGenOutages screens every in-service generator's outage (the
	// full generator N-1 set); mutually exclusive with GenContingencies.
	AllGenOutages bool `json:"all_gen_outages,omitempty"`
	// Pairs lists explicit N-2 branch pairs to screen on top of the
	// single-outage contingencies. Pairs that island the network are
	// legal: the engine classifies them without solving.
	Pairs [][2]int `json:"pairs,omitempty"`
	// SkipIntact drops the no-outage scenario of each draw.
	SkipIntact bool `json:"skip_intact,omitempty"`
	// Cold forces cold-start screening even when a model is loaded.
	Cold bool `json:"cold,omitempty"`
	// Outcomes includes the per-scenario results in the response.
	Outcomes bool `json:"outcomes,omitempty"`
}

// ScreenClass reports one topology class of a screening run.
type ScreenClass struct {
	OutBranch  int    `json:"out_branch"`  // -1 = no branch outage
	OutBranch2 int    `json:"out_branch2"` // second branch of an N-2 pair, -1 = none
	OutGen     int    `json:"out_gen"`     // dropped generator, -1 = none
	Kind       string `json:"kind"`        // "intact", "branch", "pair", "gen" or "branch+gen"
	Scenarios  int    `json:"scenarios"`
	NMu        int    `json:"nmu"`       // inequality rows: the intact system's, for every class
	WarmMode   string `json:"warm_mode"` // "exact", "projected" or "cold"
	Islanded   bool   `json:"islanded,omitempty"`
}

// ScreenOutcome is one scenario's result in a ScreenResponse.
type ScreenOutcome struct {
	Draw       int     `json:"draw"`
	OutBranch  int     `json:"out_branch"`
	OutBranch2 int     `json:"out_branch2"` // -1 = none
	OutGen     int     `json:"out_gen"`     // -1 = none
	Feasible   bool    `json:"feasible"`
	Cost       float64 `json:"cost"`
	Iterations int     `json:"iterations"`
	Binding    int     `json:"binding"` // active inequality rows at the solution (decoupled outage rows excluded)
	Warm       bool    `json:"warm"`
	Projected  bool    `json:"projected"`
	Islanded   bool    `json:"islanded,omitempty"`
	Err        string  `json:"err,omitempty"`
}

// ScreenResponse is the body of a successful POST /v1/screen.
type ScreenResponse struct {
	System          string          `json:"system"`
	Scenarios       int             `json:"scenarios"`
	Classes         int             `json:"classes"` // prepared topology variants (structure reuse = Scenarios/Classes)
	Feasible        int             `json:"feasible"`
	WarmConverged   int             `json:"warm_converged"`
	Projected       int             `json:"projected"`
	Islanded        int             `json:"islanded"` // scenarios classified as islanding, never solved
	Errors          int             `json:"errors"`
	ErrorIterations int             `json:"error_iterations"` // iterations the errored scenarios burnt, warm attempts included
	MeanIterations  float64         `json:"mean_iterations"`
	WorstCost       float64         `json:"worst_cost"`
	WarmHitRate     float64         `json:"warm_hit_rate"`
	ElapsedUS       int64           `json:"elapsed_us"`
	ScenariosPerSec float64         `json:"scenarios_per_sec"`
	ClassStats      []ScreenClass   `json:"class_stats"`
	Outcomes        []ScreenOutcome `json:"outcomes,omitempty"`
}

// Screening bounds: enough for a full N-1 sweep on the largest paper
// system at a few dozen draws, small enough that one request cannot
// monopolize the server for minutes unnoticed.
const (
	maxScreenDraws     = 1024
	maxScreenScenarios = 8192
)

// validateScreen resolves a screening request into the scenario list
// (scopf.Cross: draw-major, intact topology first unless skipped) and
// the number of scenarios per draw, so scenario i belongs to draw
// i / perDraw. Error text is safe for the client.
func (s *Server) validateScreen(req *ScreenRequest) (*systemState, []scopf.Scenario, int, error) {
	st, err := s.system(req.System)
	if err != nil {
		return nil, nil, 0, err
	}
	nb := st.sys.Case.NB()

	if req.NDraws < 0 {
		return nil, nil, 0, fmt.Errorf("n_draws %d out of range (want a positive count)", req.NDraws)
	}
	if len(req.Draws) > 0 && req.NDraws > 0 {
		return nil, nil, 0, fmt.Errorf("fields %q and %q are mutually exclusive", "draws", "n_draws")
	}
	var draws []la.Vector
	switch {
	case len(req.Draws) > 0:
		if len(req.Draws) > maxScreenDraws {
			return nil, nil, 0, fmt.Errorf("%d draws exceed the limit of %d", len(req.Draws), maxScreenDraws)
		}
		for d, f := range req.Draws {
			if len(f) != nb {
				return nil, nil, 0, fmt.Errorf("draws[%d] has %d entries, system %s has %d buses", d, len(f), req.System, nb)
			}
			for i, v := range f {
				if !validFactor(v) {
					return nil, nil, 0, fmt.Errorf("draws[%d][%d] = %v out of range (want a positive finite multiplier ≤ %v)", d, i, v, maxFactor)
				}
			}
			draws = append(draws, la.Vector(f).Clone())
		}
	case req.NDraws > 0:
		if req.NDraws > maxScreenDraws {
			return nil, nil, 0, fmt.Errorf("n_draws %d exceeds the limit of %d", req.NDraws, maxScreenDraws)
		}
		spread := req.Spread
		if spread == 0 {
			spread = 0.1
		}
		if spread < 0 || spread >= 1 {
			return nil, nil, 0, fmt.Errorf("spread %v out of range (want 0 < spread < 1)", spread)
		}
		rng := rand.New(rand.NewSource(req.Seed))
		for d := 0; d < req.NDraws; d++ {
			f := make(la.Vector, nb)
			for i := range f {
				f[i] = 1 - spread + 2*spread*rng.Float64()
			}
			draws = append(draws, f)
		}
	default:
		if req.Spread != 0 {
			return nil, nil, 0, fmt.Errorf("field %q needs %q", "spread", "n_draws")
		}
		f := make(la.Vector, nb)
		for i := range f {
			f[i] = 1
		}
		draws = append(draws, f)
	}

	cons := req.Contingencies
	if cons == nil {
		cons = scopf.Contingencies(st.sys.Case)
	}
	nbr := len(st.sys.Case.Branches)
	for i, l := range cons {
		if l < 0 || l >= nbr {
			return nil, nil, 0, fmt.Errorf("contingencies[%d] = %d outside the %d branches of %s", i, l, nbr, req.System)
		}
	}
	gens := req.GenContingencies
	if req.AllGenOutages {
		if len(gens) > 0 {
			return nil, nil, 0, fmt.Errorf("fields %q and %q are mutually exclusive", "gen_contingencies", "all_gen_outages")
		}
		gens = scopf.GenContingencies(st.sys.Case)
	}
	ngen := len(st.sys.Case.Gens)
	for i, g := range gens {
		if g < 0 || g >= ngen {
			return nil, nil, 0, fmt.Errorf("gen_contingencies[%d] = %d outside the %d generators of %s", i, g, ngen, req.System)
		}
		if !st.sys.Case.Gens[g].Status {
			return nil, nil, 0, fmt.Errorf("gen_contingencies[%d]: generator %d of %s is out of service", i, g, req.System)
		}
	}
	for i, p := range req.Pairs {
		for _, l := range p {
			if l < 0 || l >= nbr {
				return nil, nil, 0, fmt.Errorf("pairs[%d] names branch %d outside the %d branches of %s", i, l, nbr, req.System)
			}
		}
	}
	perDraw := len(cons) + len(gens) + len(req.Pairs)
	if !req.SkipIntact {
		perDraw++
	}
	if perDraw == 0 {
		return nil, nil, 0, fmt.Errorf("nothing to screen: %q with an empty %q", "skip_intact", "contingencies")
	}
	if total := len(draws) * perDraw; total > maxScreenScenarios {
		return nil, nil, 0, fmt.Errorf("%d scenarios (%d draws × %d topologies) exceed the limit of %d", total, len(draws), perDraw, maxScreenScenarios)
	}

	return st, scopf.Cross(draws, !req.SkipIntact, cons, gens, req.Pairs), perDraw, nil
}

// validate checks a decoded request against the registered system and
// resolves the per-bus factor vector. The returned error text is safe
// to return to the client.
func (s *Server) validate(req *SolveRequest) (*systemState, []float64, error) {
	st, err := s.system(req.System)
	if err != nil {
		return nil, nil, err
	}
	if req.Scale != nil && req.Factors != nil {
		return nil, nil, fmt.Errorf("fields %q and %q are mutually exclusive", "scale", "factors")
	}
	nb := st.sys.Case.NB()
	factors := make([]float64, nb)
	switch {
	case req.Scale != nil:
		if !validFactor(*req.Scale) {
			return nil, nil, fmt.Errorf("scale %v out of range (want a positive finite multiplier ≤ %v)", *req.Scale, maxFactor)
		}
		for i := range factors {
			factors[i] = *req.Scale
		}
	case req.Factors != nil:
		if len(req.Factors) != nb {
			return nil, nil, fmt.Errorf("factors has %d entries, system %s has %d buses", len(req.Factors), req.System, nb)
		}
		for i, f := range req.Factors {
			if !validFactor(f) {
				return nil, nil, fmt.Errorf("factors[%d] = %v out of range (want a positive finite multiplier ≤ %v)", i, f, maxFactor)
			}
		}
		copy(factors, req.Factors)
	default:
		for i := range factors {
			factors[i] = 1.0
		}
	}
	return st, factors, nil
}

// maxFactor bounds a load multiplier: generous enough for any stress
// sweep, tight enough to reject units mistakes (loads sent in MW).
const maxFactor = 100.0

func validFactor(f float64) bool {
	return f > 0 && !math.IsInf(f, 1) && !math.IsNaN(f) && f <= maxFactor
}

func usec(d time.Duration) int64 { return d.Microseconds() }
