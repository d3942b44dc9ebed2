package serve

import (
	"time"

	"repro/internal/batch"
	"repro/internal/dataset"
	"repro/internal/opf"
)

// job is one queued solve request: the target system, the resolved
// per-bus factors and a buffered channel the handler waits on.
type job struct {
	st      *systemState
	cold    bool
	factors []float64
	resp    chan *SolveResponse
}

// dispatch is the micro-batching loop: it blocks for the first queued
// request, keeps collecting until the batch window closes or MaxBatch
// is reached, and fans the batch out across the internal/batch worker
// pool. One batch runs at a time; requests arriving meanwhile wait in
// the bounded queue (the handler sheds load past QueueDepth).
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.runBatch(s.collect(j))
		case <-s.done:
			s.drain()
			return
		}
	}
}

// collect gathers at most MaxBatch jobs, waiting up to BatchWindow
// after the first for stragglers to coalesce. A negative window takes
// only what is already queued, without waiting.
func (s *Server) collect(first *job) []*job {
	jobs := []*job{first}
	if s.cfg.MaxBatch == 1 {
		return jobs
	}
	if s.cfg.BatchWindow < 0 {
		for len(jobs) < s.cfg.MaxBatch {
			select {
			case j := <-s.queue:
				jobs = append(jobs, j)
			default:
				return jobs
			}
		}
		return jobs
	}
	timer := time.NewTimer(s.cfg.BatchWindow)
	defer timer.Stop()
	for len(jobs) < s.cfg.MaxBatch {
		select {
		case j := <-s.queue:
			jobs = append(jobs, j)
		case <-timer.C:
			return jobs
		}
	}
	return jobs
}

// drain completes whatever is still queued at shutdown, so no handler
// is left waiting; it must not block on an empty queue.
func (s *Server) drain() {
	for {
		select {
		case j := <-s.queue:
			s.runBatch(s.collect(j))
		default:
			return
		}
	}
}

// runBatch executes one micro-batch on the worker pool. Requests are
// independent solves, so neither task order nor the per-task RNG
// matters — only the pool's panic propagation and bounded parallelism.
func (s *Server) runBatch(jobs []*job) {
	s.met.observeBatchSize(len(jobs))
	_ = batch.Run(len(jobs), batch.Options{Workers: s.cfg.Workers}, func(t *batch.Task) error {
		j := jobs[t.Index]
		j.resp <- s.execute(j)
		return nil
	})
}

// execute runs one request through the exact offline code path:
// core.System.SolveWarmInstance for the warm pipeline (predict → warm
// solve → cold-restart fallback) or the same (*opf.OPF).SolveWarm chain
// without a start for the cold one. Solutions are therefore
// bit-identical to cmd/pgsim / cmd/smartpgsim for the same system,
// factors and model.
func (s *Server) execute(j *job) *SolveResponse {
	t0 := time.Now()
	resp := &SolveResponse{System: j.st.sys.Name, Path: "cold"}
	// One derivation serves both the model input and the solver: the
	// Perturb'd instance's case is the scaled clone InstanceInput would
	// otherwise rebuild.
	inst := j.st.sys.OPF.Perturb(j.factors)
	var input []float64
	var r *opf.Result
	if mv := j.st.model(); mv != nil && !j.cold {
		// The model version is loaded once per request and the request
		// predicts only with it, so a concurrent hot swap can neither drop
		// this request nor mix model versions within it. During a canary
		// window the deterministic splitter routes the request to the
		// candidate's version instead.
		cr := j.st.canary.Load()
		if cr != nil && cr.ctl.Route() {
			mv = cr.cand
			resp.Canary = true
		}
		input = dataset.InputVector(inst.Case)
		w := j.st.sys.SolveWarmInstance(mv.pred, inst, input)
		r = w.Result
		resp.Path = "warm"
		resp.WarmConverged = w.Converged
		if !w.Converged {
			resp.Path = "warm_restart"
			resp.ColdRestarted = true
		}
		resp.ModelVersion = mv.version
		resp.Timing = Timing{
			PrepUS:    usec(w.PrepTime),
			InferUS:   usec(w.InferTime),
			SolveUS:   usec(w.WarmTime),
			RestartUS: usec(w.RestartTime),
		}
		if cr != nil {
			cr.ctl.Observe(resp.Canary, w.Converged, w.Iterations)
			arm := "incumbent"
			if resp.Canary {
				arm = "candidate"
			}
			s.met.inc(s.met.lcCanarySolves, 1, j.st.sys.Name, arm)
			s.maybeFinishCanary(j.st, cr)
		}
	} else {
		if j.st.lc != nil {
			input = dataset.InputVector(inst.Case)
		}
		out := inst.SolveWarm(nil, opf.Options{}) // a solver error reports as Converged=false
		r = out.Result
		resp.Timing = Timing{PrepUS: usec(r.PrepTime), SolveUS: usec(out.SolveTime)}
	}
	resp.Converged = r.Converged
	resp.Iterations = r.Iterations
	resp.Cost = r.Cost
	resp.Va, resp.Vm, resp.Pg, resp.Qg = r.Va, r.Vm, r.Pg, r.Qg
	s.lifecycleObserve(j.st, j.factors, input, resp, r)
	total := time.Since(t0)
	resp.Timing.TotalUS = usec(total)
	s.met.recordSolve(resp, total)
	return resp
}
