package opf

import (
	"time"

	"repro/internal/la"
)

// Predictor produces a warm-start point from a model input [Pd; Qd].
// *mtl.Model is the production implementation; the serving layer and
// tests substitute stubs to force specific warm-start behaviour. Predict
// must be safe for concurrent use: every consumer — evaluation sweeps,
// screening, trajectories, the serving daemon — shares one Predictor per
// model version across all its goroutines.
type Predictor interface {
	Predict(input la.Vector) *Start
}

// BindingTol is the slack threshold below which an inequality row (or a
// variable's distance to its bound) counts as binding at an accepted
// solution. MIPS drives feasible slacks to ~µ/z scale; 1e-6 separates
// active rows cleanly on every embedded system. Screening severity and
// the trajectory ramp-binding count both read it.
const BindingTol = 1e-6

// Outcome reports one pass through the paper's online chain on a
// prepared instance: warm solve from a start, cold restart when that
// fails.
type Outcome struct {
	// Result is the terminal solve's result: the warm attempt's when it
	// was accepted, otherwise the cold solve's. Never nil.
	Result *Result
	// Warm is the rejected warm attempt's result when Restarted, nil
	// otherwise; core keeps reporting it when the restart fails as well.
	Warm         *Result
	WarmAccepted bool // the start was tried and converged
	Restarted    bool // the start was tried and failed; the cold solve ran as its restart
	// SolveTime is the solver time of the first attempt — the warm try,
	// or the cold solve when there was no start. RestartTime is the cold
	// solve after a failed warm try, zero otherwise.
	SolveTime, RestartTime time.Duration
	Err                    error // the terminal solve's error
}

// SolveWarm runs the warm→cold chain: solve from start when there is
// one and, on error or non-convergence (or with no start at all), solve
// from the default interior point — the paper's restart. Every caller of
// the online phase (core, scopf, horizon, serve) goes through it, so
// their acceptance rule and accounting are identical by construction.
func (o *OPF) SolveWarm(start *Start, opt Options) Outcome {
	var out Outcome
	if start != nil {
		r, err := o.Solve(start, opt)
		if err == nil && r.Converged {
			return Outcome{Result: r, WarmAccepted: true, SolveTime: r.SolveTime}
		}
		out.Restarted = true
		out.Warm = r
		out.SolveTime = r.SolveTime
	}
	out.Result, out.Err = o.Solve(nil, opt)
	if out.Restarted {
		out.RestartTime = out.Result.SolveTime
	} else {
		out.SolveTime = out.Result.SolveTime
	}
	return out
}
