package serve

import (
	"net/http"
	"time"

	"repro/internal/opf"
	"repro/internal/scopf"
)

// handleScreen runs one N-1 screening sweep on the topology-aware
// engine, reusing the system's prepared OPF structure and — for warm
// screening — its model. Sweeps are serialized through screenSem; a
// second concurrent request sheds with 503 rather than oversubscribing
// the solver pool.
func (s *Server) handleScreen(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/screen"
	var req ScreenRequest
	if !s.decode(w, r, endpoint, &req) {
		return
	}
	st, scenarios, perDraw, err := s.validateScreen(&req)
	if err != nil {
		s.reject(w, endpoint, err)
		return
	}
	select {
	case s.screenSem <- struct{}{}:
	default:
		s.writeError(w, endpoint, http.StatusServiceUnavailable, "a screening sweep is already running, retry later")
		return
	}
	defer func() { <-s.screenSem }()

	// The model version is loaded once for the whole sweep, so the sweep
	// is served wholly by one version even if the system's model is
	// hot-swapped while it runs.
	var pred opf.Predictor
	if mv := st.model(); mv != nil && !req.Cold {
		pred = mv.pred
	}

	eng := &scopf.Engine{
		Prepared:  st.sys.OPF,
		Predictor: pred,
		Workers:   s.cfg.Workers,
	}
	t0 := time.Now()
	rep := eng.Run(scenarios)
	elapsed := time.Since(t0)

	sum := scopf.Summarize(rep.Outcomes)
	resp := &ScreenResponse{
		System:          st.sys.Name,
		Scenarios:       sum.Total,
		Classes:         len(rep.Classes),
		Feasible:        sum.Feasible,
		WarmConverged:   sum.WarmConverged,
		Projected:       sum.Projected,
		Islanded:        sum.Islanded,
		Errors:          sum.Errors,
		ErrorIterations: sum.ErrorIterations,
		MeanIterations:  sum.MeanIterations,
		WorstCost:       sum.WorstCost,
		ElapsedUS:       usec(elapsed),
	}
	if sum.Total > 0 {
		resp.WarmHitRate = float64(sum.WarmConverged) / float64(sum.Total)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		resp.ScenariosPerSec = float64(sum.Total) / sec
	}
	for _, cl := range rep.Classes {
		resp.ClassStats = append(resp.ClassStats, ScreenClass{
			OutBranch: cl.OutBranch, OutBranch2: cl.OutBranch2, OutGen: cl.OutGen,
			Kind: cl.Kind, Scenarios: cl.Scenarios, NMu: cl.NIq,
			WarmMode: cl.WarmMode, Islanded: cl.Islanded,
		})
	}
	if req.Outcomes {
		resp.Outcomes = make([]ScreenOutcome, len(rep.Outcomes))
		for i, o := range rep.Outcomes {
			so := ScreenOutcome{
				Draw: i / perDraw, OutBranch: o.Scenario.OutBranch,
				OutBranch2: o.Scenario.SecondBranch(), OutGen: o.Scenario.OutagedGen(),
				Feasible: o.Feasible, Cost: o.Cost, Iterations: o.Iterations,
				Binding: o.Binding, Warm: o.WarmUsed, Projected: o.Projected,
				Islanded: o.Islanded,
			}
			if o.Err != nil {
				so.Err = o.Err.Error()
			}
			resp.Outcomes[i] = so
		}
	}
	s.met.recordScreen(st.sys.Name, sum, rep, elapsed)
	s.writeJSON(w, endpoint, http.StatusOK, resp)
}
