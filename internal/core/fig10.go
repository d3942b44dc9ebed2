package core

import (
	"fmt"
	"io"

	"repro/internal/batch"
	"repro/internal/dataset"
	"repro/internal/mips"
	"repro/internal/opf"
)

// ConvergenceCase pairs a label with a per-iteration solver trace
// (step size and the four termination conditions of Figure 10).
type ConvergenceCase struct {
	Label     string
	Converged bool
	Trace     []mips.IterStat
}

// ConvergenceStudy reproduces Figure 10 on one problem instance: the
// solver trace from a good initial solution (the exact warm start) and
// from a bad one (precise slacks Z with default multipliers µ — the
// inconsistent pairing Table I identifies as the divergence trigger).
// The three solves are independent and run concurrently on the batch
// pool; the returned order is fixed.
func ConvergenceStudy(sys *System, s *dataset.Sample) []ConvergenceCase {
	opts := opf.Options{RecordTrace: true, MaxIter: 60}
	starts := []struct {
		label string
		start *opf.Start
	}{
		{"good init (exact warm start)", &opf.Start{X: s.X, Lam: s.Lam, Mu: s.Mu, Z: s.Z}},
		{"bad init (precise Z, default mu)", &opf.Start{X: s.X, Z: s.Z}},
		{"default init (cold start)", nil},
	}
	out, _ := batch.Map(len(starts), batch.Options{}, func(t *batch.Task) (ConvergenceCase, error) {
		o := sys.OPF.Perturb(s.Factors)
		r, _ := o.Solve(starts[t.Index].start, opts)
		return ConvergenceCase{Label: starts[t.Index].label, Converged: r.Converged, Trace: r.Trace}, nil
	})
	return out
}

// PrintFig10 renders the traces as columns (step size + four criteria).
func PrintFig10(w io.Writer, cases []ConvergenceCase) {
	fmt.Fprintln(w, "Figure 10 — convergence traces (step size and termination conditions)")
	for _, c := range cases {
		fmt.Fprintf(w, "\n[%s] converged=%v iterations=%d\n", c.Label, c.Converged, len(c.Trace))
		fmt.Fprintf(w, "%4s %12s %12s %12s %12s %12s\n", "it", "step", "feas", "grad", "comp", "cost")
		for _, t := range c.Trace {
			fmt.Fprintf(w, "%4d %12.3e %12.3e %12.3e %12.3e %12.3e\n",
				t.Iter, t.StepSize, t.FeasCond, t.GradCond, t.CompCond, t.CostCond)
		}
	}
}
