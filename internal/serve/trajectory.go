package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/horizon"
	"repro/internal/opf"
)

// maxTrajectorySteps bounds one /v1/trajectory request: long enough for
// a day of 5-minute intervals, short enough that a single stream cannot
// hold a stream slot for hours unnoticed.
const maxTrajectorySteps = 512

// defaultRampFrac is the per-step ramp limit applied when the request
// does not set ramp_frac: 20 % of each unit's dispatch range per step
// (see horizon.RampFromRange; an explicit 0 disables ramp coupling).
const defaultRampFrac = 0.2

// TrajectoryRequest is the body of POST /v1/trajectory: a multi-period
// OPF trajectory solved with warm-start chaining (default), per-step
// model prediction, or cold starts. The load trajectory is the
// deterministic synthetic forecast of horizon.Synthetic — a smooth ramp
// profile times per-step noise — so a (system, steps, seed, amp,
// spread) tuple replays bit-identically, offline or served.
type TrajectoryRequest struct {
	// System names a loaded system ("case9", …); required.
	System string `json:"system"`
	// Steps is the trajectory length; required, 1..512.
	Steps int `json:"steps"`
	// Mode is "chain" (default), "predict" or "cold".
	Mode string `json:"mode,omitempty"`
	// Seed seeds the per-step forecast noise (deterministic replay).
	Seed int64 `json:"seed,omitempty"`
	// Amp is the smooth ramp profile's amplitude in [0, 1); default 0.05.
	Amp *float64 `json:"amp,omitempty"`
	// Spread is the per-step noise half-width in [0, 1); default 0.02.
	Spread *float64 `json:"spread,omitempty"`
	// RampFrac sets the per-step ramp limit as a fraction of each unit's
	// dispatch range, in [0, 1]; default 0.2; 0 disables ramp coupling.
	RampFrac *float64 `json:"ramp_frac,omitempty"`
}

// TrajectoryStep is one NDJSON line of the /v1/trajectory stream,
// emitted as soon as the step's solve completes.
type TrajectoryStep struct {
	Step          int       `json:"step"`
	Converged     bool      `json:"converged"`
	Warm          bool      `json:"warm"`
	ColdRestarted bool      `json:"cold_restarted,omitempty"`
	Ramped        bool      `json:"ramped,omitempty"`
	RampBinding   int       `json:"ramp_binding,omitempty"`
	Iterations    int       `json:"iterations"`
	Cost          float64   `json:"cost"`
	Pg            []float64 `json:"pg"` // MW — the ramp-chained quantity
	Timing        Timing    `json:"timing"`
	Err           string    `json:"err,omitempty"`
}

// TrajectorySummary is the final NDJSON line of a completed stream,
// marked by done = true.
type TrajectorySummary struct {
	Done         bool    `json:"done"`
	System       string  `json:"system"`
	Mode         string  `json:"mode"`
	Steps        int     `json:"steps"`
	Converged    int     `json:"converged"`
	WarmHits     int     `json:"warm_hits"`
	ColdRestarts int     `json:"cold_restarts"`
	Iterations   int     `json:"iterations"`
	ElapsedUS    int64   `json:"elapsed_us"`
	StepsPerSec  float64 `json:"steps_per_sec"`
}

// validateTrajectory resolves a trajectory request into the system, the
// parsed mode, the predictor a predict-mode stream runs on (nil in the
// other modes) and the synthetic trajectory. Error text is safe for the
// client.
func (s *Server) validateTrajectory(req *TrajectoryRequest) (*systemState, horizon.Mode, opf.Predictor, *horizon.Trajectory, float64, error) {
	st, err := s.system(req.System)
	if err != nil {
		return nil, 0, nil, nil, 0, err
	}
	if req.Steps <= 0 {
		return nil, 0, nil, nil, 0, fmt.Errorf("steps %d out of range (want a positive count)", req.Steps)
	}
	if req.Steps > maxTrajectorySteps {
		return nil, 0, nil, nil, 0, fmt.Errorf("steps %d exceeds the limit of %d", req.Steps, maxTrajectorySteps)
	}
	modeStr := req.Mode
	if modeStr == "" {
		modeStr = "chain"
	}
	mode, err := horizon.ParseMode(modeStr)
	if err != nil {
		return nil, 0, nil, nil, 0, fmt.Errorf("mode %q unknown (want chain, predict or cold)", req.Mode)
	}
	var pred opf.Predictor
	if mode == horizon.ModePredict {
		// The model version is loaded once, here, for the whole stream, so
		// a hot swap mid-stream neither drops the stream nor changes the
		// model it predicts with.
		mv := st.model()
		if mv == nil {
			return nil, 0, nil, nil, 0, fmt.Errorf("mode %q needs a model, system %s serves cold-only", "predict", req.System)
		}
		pred = mv.pred
	}
	amp := 0.05
	if req.Amp != nil {
		amp = *req.Amp
	}
	spread := 0.02
	if req.Spread != nil {
		spread = *req.Spread
	}
	frac := defaultRampFrac
	if req.RampFrac != nil {
		frac = *req.RampFrac
	}
	if frac < 0 || frac > 1 {
		return nil, 0, nil, nil, 0, fmt.Errorf("ramp_frac %v out of range [0, 1]", frac)
	}
	traj, err := horizon.Synthetic(st.sys.Case.NB(), req.Steps, req.Seed, amp, spread)
	if err != nil {
		// Synthetic's own bounds checks (amp/spread in [0, 1)) with the
		// package prefix stripped for the client.
		return nil, 0, nil, nil, 0, fmt.Errorf("%v", err)
	}
	return st, mode, pred, traj, frac, nil
}

// handleTrajectory streams one multi-period trajectory as NDJSON: one
// TrajectoryStep line per step as it completes, then a TrajectorySummary
// line with done = true. The whole trajectory runs on this handler's
// goroutine, where its chained state lives; a predict-mode stream calls
// the system's shared model from here, concurrently with the solve
// workers. A client disconnect between steps aborts the run. Concurrent
// trajectories are bounded by trajSem; excess requests shed with 503.
func (s *Server) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/trajectory"
	var req TrajectoryRequest
	if !s.decode(w, r, endpoint, &req) {
		return
	}
	st, mode, pred, traj, frac, err := s.validateTrajectory(&req)
	if err != nil {
		s.reject(w, endpoint, err)
		return
	}
	select {
	case s.trajSem <- struct{}{}:
	default:
		s.writeError(w, endpoint, http.StatusServiceUnavailable, "trajectory capacity exhausted, retry later")
		return
	}
	defer func() { <-s.trajSem }()

	ramp := horizon.RampFromRange(st.sys.OPF, frac)
	stepper, err := horizon.NewStepper(st.sys.OPF, mode, pred, ramp, ramp)
	if err != nil {
		s.writeError(w, endpoint, http.StatusInternalServerError, err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s.met.inc(s.met.requests, 1, endpoint, "200")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	sum := TrajectorySummary{System: st.sys.Name, Mode: mode.String()}
	t0 := time.Now()
	for _, f := range traj.Factors {
		select {
		case <-ctx.Done():
			// Client gone mid-stream: abort the horizon, release the
			// stream slot (deferred) and account the disconnect.
			s.met.inc(s.met.trajectoryDisconnects, 1, st.sys.Name)
			return
		default:
		}
		stepT0 := time.Now()
		sr := stepper.Step(f)
		line := TrajectoryStep{
			Step:          sr.Step,
			Converged:     sr.Converged,
			Warm:          sr.WarmUsed,
			ColdRestarted: sr.ColdRestart,
			Ramped:        sr.Ramped,
			RampBinding:   sr.RampBinding,
			Iterations:    sr.Iterations,
			Cost:          sr.Cost,
			Timing: Timing{
				PrepUS:  usec(sr.PrepTime),
				InferUS: usec(sr.InferTime),
				SolveUS: usec(sr.SolveTime),
				TotalUS: usec(sr.PrepTime + sr.InferTime + sr.SolveTime),
			},
		}
		if sr.Result != nil {
			line.Pg = sr.Result.Pg
		}
		if sr.Err != nil {
			line.Err = sr.Err.Error()
		}
		if err := enc.Encode(line); err != nil {
			s.met.inc(s.met.trajectoryDisconnects, 1, st.sys.Name)
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		sum.Steps++
		sum.Iterations += sr.Iterations
		if sr.Converged {
			sum.Converged++
		}
		if sr.WarmUsed {
			sum.WarmHits++
		}
		if sr.ColdRestart {
			sum.ColdRestarts++
		}
		s.met.recordTrajectoryStep(st.sys.Name, mode.String(), sr.WarmUsed, time.Since(stepT0))
	}
	elapsed := time.Since(t0)
	sum.Done = true
	sum.ElapsedUS = usec(elapsed)
	if sec := elapsed.Seconds(); sec > 0 {
		sum.StepsPerSec = float64(sum.Steps) / sec
	}
	_ = enc.Encode(sum)
	if flusher != nil {
		flusher.Flush()
	}
	s.met.inc(s.met.trajectories, 1, st.sys.Name, mode.String())
}
