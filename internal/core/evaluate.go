package core

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/batch"
	"repro/internal/dataset"
	"repro/internal/mtl"
	"repro/internal/opf"
	"repro/internal/stats"
)

// Breakdown aggregates the runtime components of Figure 5 across an
// evaluation run (all values are totals).
type Breakdown struct {
	Pre     time.Duration // problem construction (both pipelines)
	Newton  time.Duration // interior-point iterations
	MTL     time.Duration // model inference (Smart-PGSim only)
	Restart time.Duration // cold fallbacks after failed warm starts
}

// EvalResult is one system row of Figures 4 and 5.
type EvalResult struct {
	System    string
	NProblems int

	// MIPS baseline.
	TimeMIPS time.Duration // total cold-start solve time
	IterMIPS float64       // mean iterations

	// Smart-PGSim online pipeline.
	TimeSmart time.Duration // total end-to-end time (inference+solve+restarts)
	IterSmart float64       // mean iterations of the accepted solves
	SR        float64       // success rate before restart (Fig 4c)
	SU        float64       // Eqn 10 speedup

	BreakMIPS  Breakdown
	BreakSmart Breakdown

	// CostDelta is the mean |1 − cost_smart/cost_mips| over problems —
	// the "same solution" check (≈0).
	CostDelta float64
}

// Evaluate runs the paper's main comparison (Fig 4a-c, Fig 5) for one
// system: each validation sample is solved cold (MIPS) and through the
// Smart-PGSim online pipeline (predict → warm solve → restart fallback).
// Samples are fanned out across the batch worker pool; per-sample
// outcomes are aggregated in sample order, so every non-timing field is
// identical to a sequential run.
func Evaluate(sys *System, m *mtl.Model, val *dataset.Set, maxProblems int) EvalResult {
	return evaluate(sys, m, val, maxProblems, 0)
}

// evalOutcome is one sample's contribution to the aggregate.
type evalOutcome struct {
	skipped bool // cold baseline failed (should not happen)
	cold    *opf.Result
	warm    *WarmOutcome
}

func evaluate(sys *System, m *mtl.Model, val *dataset.Set, maxProblems, workers int) EvalResult {
	n := len(val.Samples)
	if maxProblems > 0 && n > maxProblems {
		n = maxProblems
	}
	res := EvalResult{System: sys.Name, NProblems: n}
	if n == 0 {
		return res
	}

	outcomes, _ := batch.Map(n, batch.Options{Workers: workers}, func(t *batch.Task) (evalOutcome, error) {
		s := &val.Samples[t.Index]
		// Cold MIPS baseline (measured fresh — the dataset's stored time
		// may come from a different machine/load state).
		o := sys.OPF.Perturb(s.Factors)
		rc, err := o.Solve(nil, opf.Options{})
		if err != nil || !rc.Converged {
			return evalOutcome{skipped: true}, nil
		}
		w := sys.SolveWarm(m, s.Factors, s.Input)
		return evalOutcome{cold: rc, warm: w}, nil
	})

	var iterM, iterS float64
	var nOK int
	var costDeltas []float64
	for _, out := range outcomes {
		if out.skipped {
			continue
		}
		rc, w := out.cold, out.warm
		res.TimeMIPS += rc.PrepTime + rc.SolveTime
		res.BreakMIPS.Pre += rc.PrepTime
		res.BreakMIPS.Newton += rc.SolveTime
		iterM += float64(rc.Iterations)

		res.TimeSmart += w.PrepTime + w.InferTime + w.WarmTime + w.RestartTime
		res.BreakSmart.Pre += w.PrepTime
		res.BreakSmart.MTL += w.InferTime
		res.BreakSmart.Newton += w.WarmTime
		res.BreakSmart.Restart += w.RestartTime
		iterS += float64(w.Iterations)
		if w.Converged {
			nOK++
		}
		if w.Cost > 0 && rc.Cost > 0 {
			costDeltas = append(costDeltas, math.Abs(1-w.Cost/rc.Cost))
		}
	}
	res.IterMIPS = iterM / float64(n)
	res.IterSmart = iterS / float64(n)
	res.SR = float64(nOK) / float64(n)
	if res.TimeSmart > 0 {
		res.SU = float64(res.TimeMIPS) / float64(res.TimeSmart)
	}
	res.CostDelta = stats.Mean(costDeltas)
	return res
}

// PrintFig4 renders the three panels of Figure 4 as rows.
func PrintFig4(w io.Writer, results []EvalResult) {
	fmt.Fprintln(w, "Figure 4 — MIPS vs Smart-PGSim")
	fmt.Fprintf(w, "%-10s %8s %12s %12s %7s %9s %9s %7s %10s\n",
		"system", "probs", "t_MIPS", "t_Smart", "SU", "it_MIPS", "it_Smart", "it%", "SR(noRst)")
	for _, r := range results {
		itPct := 0.0
		if r.IterMIPS > 0 {
			itPct = 100 * r.IterSmart / r.IterMIPS
		}
		fmt.Fprintf(w, "%-10s %8d %12s %12s %6.2fx %9.1f %9.1f %6.1f%% %9.1f%%\n",
			r.System, r.NProblems,
			r.TimeMIPS.Round(time.Millisecond), r.TimeSmart.Round(time.Millisecond),
			r.SU, r.IterMIPS, r.IterSmart, itPct, r.SR*100)
	}
}

// PrintFig5 renders the normalized runtime breakdown of Figure 5.
func PrintFig5(w io.Writer, results []EvalResult) {
	fmt.Fprintln(w, "Figure 5 — runtime breakdown (normalized to MIPS total)")
	fmt.Fprintf(w, "%-10s %-12s %8s %8s %8s %8s\n", "system", "pipeline", "pre", "newton", "mtl", "restart")
	for _, r := range results {
		tm := float64(r.TimeMIPS)
		if tm == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s %-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", r.System, "MIPS",
			100*float64(r.BreakMIPS.Pre)/tm, 100*float64(r.BreakMIPS.Newton)/tm, 0.0, 0.0)
		fmt.Fprintf(w, "%-10s %-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", r.System, "Smart-PGSim",
			100*float64(r.BreakSmart.Pre)/tm, 100*float64(r.BreakSmart.Newton)/tm,
			100*float64(r.BreakSmart.MTL)/tm, 100*float64(r.BreakSmart.Restart)/tm)
	}
}
