// Command pgsim solves the AC optimal power flow of a test system (or a
// Matpower case file) with the MIPS interior-point solver and prints the
// dispatch, multiplier summary and timing. With a comma-separated -scale
// list it sweeps the load levels as a batch on the parallel worker pool
// and prints one summary row per level.
//
// Usage:
//
//	pgsim -case case9
//	pgsim -file mygrid.m -trace
//	pgsim -case case30 -scale 1.05
//	pgsim -case case30 -scale 0.9,0.95,1.0,1.05,1.1 -workers 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/casegen"
	"repro/internal/grid"
	"repro/internal/opf"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgsim: ")
	caseName := flag.String("case", "case9", "built-in system (case5, case9, case14, case30, case39, case57, case118, case300)")
	file := flag.String("file", "", "Matpower case file (overrides -case)")
	scale := flag.String("scale", "1.0", "uniform load scaling factor, or a comma-separated sweep (e.g. 0.9,1.0,1.1)")
	trace := flag.Bool("trace", false, "print per-iteration convergence trace")
	workers := flag.Int("workers", 0, "worker pool size for batch stages (0 = PGSIM_WORKERS or all cores)")
	flag.Parse()
	batch.SetDefaultWorkers(*workers)

	var c *grid.Case
	var err error
	if *file != "" {
		f, ferr := os.Open(*file)
		if ferr != nil {
			log.Fatal(ferr)
		}
		c, err = grid.ParseMatpower(f)
		f.Close()
	} else {
		c, err = casegen.Paper(*caseName)
	}
	if err != nil {
		log.Fatal(err)
	}
	scales, err := parseScales(*scale)
	if err != nil {
		log.Fatal(err)
	}
	if len(scales) > 1 {
		sweep(c, scales)
		return
	}
	if s := scales[0]; s != 1.0 {
		fac := make([]float64, c.NB())
		for i := range fac {
			fac[i] = s
		}
		c.ScaleLoads(fac)
	}

	o := opf.Prepare(c)
	r, err := o.Solve(nil, opf.Options{RecordTrace: *trace})
	if err != nil {
		log.Fatalf("solve failed: %v", err)
	}

	fmt.Printf("case %s: %d buses, %d generators, %d branches (#λ=%d #µ=%d)\n",
		c.Name, c.NB(), c.NG(), c.NL(), o.Lay.NEq, o.Lay.NIq)
	fmt.Printf("converged in %d iterations (prep %v, solve %v)\n",
		r.Iterations, r.PrepTime, r.SolveTime)
	st := o.KKTStats()
	fmt.Printf("KKT: ordering=%s, %d symbolic analyses, %d numeric refactors, %d fallbacks\n",
		o.Ordering(), st.Analyses, st.Refactors, st.Fallbacks)
	fmt.Printf("objective: %.2f $/hr\n\n", r.Cost)
	fmt.Printf("%-6s %10s %10s\n", "bus", "Vm (pu)", "Va (deg)")
	for i, b := range c.Buses {
		fmt.Printf("%-6d %10.4f %10.3f\n", b.ID, r.Vm[i], grid.Rad2Deg(r.Va[i]))
	}
	fmt.Printf("\n%-6s %12s %12s\n", "gen@", "Pg (MW)", "Qg (MVAr)")
	for gi, g := range c.ActiveGens() {
		fmt.Printf("%-6d %12.2f %12.2f\n", g.Bus, r.Pg[gi], r.Qg[gi])
	}
	if *trace {
		fmt.Printf("\n%4s %12s %12s %12s %12s %12s\n", "it", "step", "feas", "grad", "comp", "cost")
		for _, t := range r.Trace {
			fmt.Printf("%4d %12.3e %12.3e %12.3e %12.3e %12.3e\n",
				t.Iter, t.StepSize, t.FeasCond, t.GradCond, t.CompCond, t.CostCond)
		}
	}
}

// parseScales parses the -scale value: one factor or a comma list.
func parseScales(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -scale entry %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// sweep solves the case at every load level on the worker pool, reusing
// the prepared OPF structure (and its shared KKT cache), and prints one
// summary row per level.
func sweep(c *grid.Case, scales []float64) {
	base := opf.Prepare(c)
	type row struct {
		r   *opf.Result
		err error
	}
	rows, _ := batch.Map(len(scales), batch.Options{}, func(t *batch.Task) (row, error) {
		fac := make([]float64, c.NB())
		for i := range fac {
			fac[i] = scales[t.Index]
		}
		r, err := base.Perturb(fac).Solve(nil, opf.Options{})
		return row{r: r, err: err}, nil
	})
	fmt.Printf("case %s: load sweep over %d levels\n", c.Name, len(scales))
	fmt.Printf("%8s %10s %6s %14s %12s\n", "scale", "status", "iters", "cost ($/hr)", "solve")
	for i, out := range rows {
		status := "ok"
		switch {
		case out.err != nil:
			status = "error"
		case !out.r.Converged:
			status = "diverged"
		}
		cost := "-"
		if out.err == nil && out.r.Converged {
			cost = fmt.Sprintf("%.2f", out.r.Cost)
		}
		fmt.Printf("%8.3f %10s %6d %14s %12v\n",
			scales[i], status, out.r.Iterations, cost, out.r.SolveTime.Round(time.Microsecond))
	}
	st := base.KKTStats()
	fmt.Printf("KKT: ordering=%s, %d ordering computation(s) shared across the sweep, %d symbolic analyses, %d numeric refactors, %d fallbacks\n",
		base.Ordering(), st.Orderings, st.Analyses, st.Refactors, st.Fallbacks)
}
