package main

import (
	"time"

	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/mips"
	"repro/internal/opf"
	"repro/internal/sparse"
)

// This file holds every direct call into a layer that the traced pass
// times from outside. It runs after the served load, on the same
// process and inputs, on one goroutine: the server is idle, so the
// model behind its replica pool can be called here.

// replay is what the direct passes add up beside their spans.
type replay struct {
	inputs     int // inputs replayed step by step
	iterations int // interior-point iterations of those replays
	mismatches int // replays whose iteration count differs from the served answer
	classes    int // outage classes derived
	kkt        sparse.CacheStats
}

// replaySolve walks pool input i through the layers of a served solve:
// opf.perturb → dataset.input → mtl.predict → mips.setup → mips.step…,
// with the opf evaluation callbacks as children of the solver spans,
// then the whole pipeline once more as the single-call baseline. The
// replay is trusted only if it takes the iterations the server took.
func (r *rig) replaySolve(tr *tracer, i int, rp *replay) {
	f := r.pool.factors[i]
	root := tr.begin("replay", -1, i)
	s := tr.begin("opf.perturb", root, i)
	inst := r.sys.OPF.Perturb(f)
	tr.end(s)
	var input la.Vector
	var start *opf.Start
	if r.model != nil {
		s = tr.begin("dataset.input", root, i)
		input = dataset.InputVector(inst.Case)
		tr.end(s)
		s = tr.begin("mtl.predict", root, i)
		start = r.model.Predict(input)
		tr.end(s)
	}
	iters, ok := stepSolve(tr, root, i, inst, start)
	rp.iterations += iters
	if !ok && start != nil { // the pipeline's cold restart
		iters, _ = stepSolve(tr, root, i, inst, nil)
		rp.iterations += iters
	}
	tr.end(root)
	rp.inputs++
	if iters != r.served[i] {
		rp.mismatches++
	}

	inst = r.sys.OPF.Perturb(f)
	if r.model != nil {
		s = tr.begin("core.solve_warm", -1, i)
		r.sys.SolveWarmInstance(r.model, inst, input)
	} else {
		s = tr.begin("opf.solve_cold", -1, i)
		_, _ = inst.Solve(nil, opf.Options{}) // every pool input solved cold when the pool was drawn
	}
	tr.end(s)
}

// stepSolve runs one interior-point solve a step at a time, the way
// (*opf.OPF).Solve configures it but on a private symbolic cache, so
// the first step carries the ordering and symbolic analysis that the
// server's shared cache paid once in the check pass.
func stepSolve(tr *tracer, parent, req int, inst *opf.OPF, start *opf.Start) (iterations int, converged bool) {
	cur := parent // the solver span an evaluation callback runs under
	p := *inst.Problem()
	eval := p
	p.F = func(x la.Vector) (float64, la.Vector) {
		defer tr.end(tr.begin("opf.eval_f", cur, req))
		return eval.F(x)
	}
	p.G = func(x la.Vector) (la.Vector, *sparse.CSC) {
		defer tr.end(tr.begin("opf.eval_g", cur, req))
		return eval.G(x)
	}
	p.H = func(x la.Vector) (la.Vector, *sparse.CSC) {
		defer tr.end(tr.begin("opf.eval_h", cur, req))
		return eval.H(x)
	}
	p.Hess = func(x, lam, mu la.Vector) *sparse.CSC {
		defer tr.end(tr.begin("opf.hess", cur, req))
		return eval.Hess(x, lam, mu)
	}
	var ws *mips.WarmStart
	if start != nil {
		ws = &mips.WarmStart{X: start.X, Lam: start.Lam, Mu: start.Mu, Z: start.Z}
	}
	cur = tr.begin("mips.setup", parent, req)
	st := mips.NewStepper(&p, inst.DefaultStart(), ws, mips.Options{Ordering: inst.Ordering()})
	tr.end(cur)
	for name := "mips.first_step"; ; name = "mips.step" {
		cur = tr.begin(name, parent, req)
		done, err := st.Step()
		if !done {
			tr.end(cur)
			continue
		}
		tr.endAs(cur, "mips.final_check") // the terminating call only tests convergence
		res := st.Result()
		return res.Iterations, err == nil && res.Converged
	}
}

// replayOutage derives the topology class of one branch outage the way
// a screening sweep does for every class of every request, and solves a
// load draw on it twice: the first solve pays the class's ordering and
// symbolic analysis, the repeat only refactors.
func (r *rig) replayOutage(tr *tracer, k int, rp *replay) error {
	branch := r.cons[k%len(r.cons)]
	f := r.pool.factors[k%len(r.pool.factors)]
	root := tr.begin("replay", -1, k)
	defer tr.end(root)
	s := tr.begin("opf.rebind_outage", root, k)
	cls, err := r.sys.OPF.RebindOutage(branch)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("opf.solve_first", root, k)
	first, _ := cls.Perturb(f).Solve(nil, opf.Options{}) // a solver error is a counted outcome of the screen
	tr.end(s)
	s = tr.begin("opf.solve_repeat", root, k)
	again, _ := cls.Perturb(f).Solve(nil, opf.Options{})
	tr.end(s)
	rp.classes++
	if first.Iterations != again.Iterations {
		rp.mismatches++
	}
	addKKT(&rp.kkt, cls.KKTStats())
	return nil
}

func addKKT(a *sparse.CacheStats, b sparse.CacheStats) {
	a.Analyses += b.Analyses
	a.Refactors += b.Refactors
	a.Fallbacks += b.Fallbacks
	a.Orderings += b.Orderings
}

func subKKT(a, b sparse.CacheStats) sparse.CacheStats {
	return sparse.CacheStats{
		Analyses: a.Analyses - b.Analyses, Refactors: a.Refactors - b.Refactors,
		Fallbacks: a.Fallbacks - b.Fallbacks, Orderings: a.Orderings - b.Orderings,
	}
}

// replayFor runs the direct passes for dur and over at least one input
// of each kind: outage classes on the screen workload, then step-wise
// solves of the inputs the check pass has a served iteration count for.
func (r *rig) replayFor(dur time.Duration, tr *tracer) (replay, error) {
	var rp replay
	if r.w.screen {
		dur /= 2
		for k, end := 0, time.Now().Add(dur); k == 0 || time.Now().Before(end); k++ {
			if err := r.replayOutage(tr, k, &rp); err != nil {
				return rp, err
			}
		}
	}
	for k, end := 0, time.Now().Add(dur); k == 0 || time.Now().Before(end); k++ {
		r.replaySolve(tr, k%len(r.served), &rp)
	}
	return rp, nil
}
