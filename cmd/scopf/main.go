// Command scopf runs security-constrained OPF contingency screening: a
// tree of load draws × contingencies — N-1 branch outages, generator
// outages and N-2 branch pairs — each an independent
// AC-OPF, screened on the topology-aware engine (every contingency a
// value edit on the intact problem, factored on its one KKT analysis;
// the intact-system warm start fitted to each outage, islanding outages
// classified without solving, scenarios fanned out on the parallel
// worker pool). The per-scenario-rebuild reference the engine is pinned
// to (scopf.ScreenNaive) is not selectable here; BenchmarkScreen runs it.
//
// Usage:
//
//	scopf -case case30 -draws 8
//	scopf -case case9 -draws 4 -train 60 -epochs 150     # warm-start screening
//	scopf -case case57 -contingencies 0,3,7 -workers 8   # explicit RATED branches only
//	scopf -case case30 -draws 8 -gens all                # generator N-1 axis
//	scopf -case case14 -draws 1 -n2                      # every N-2 pair of the branch list
//	scopf -case case30 -draws 16 -json > screen.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/opf"
	"repro/internal/scopf"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scopf: ")
	caseName := flag.String("case", "case9", "built-in system ("+strings.Join(grid.Names(), ", ")+")")
	nDraws := flag.Int("draws", 4, "number of load draws to cross with the contingencies")
	seed := flag.Int64("seed", 1, "load-draw sampling seed")
	spread := flag.Float64("spread", 0.1, "half-width of the load band (0.1 = the paper's ±10 %)")
	contingencies := flag.String("contingencies", "all", "branch outages to screen: all (connected N-1 set), none, or a comma-separated index list into the case's branch table; explicit indices must name RATED in-service branches (RateA > 0) — an unrated branch carries no flow limit, so its outage is not a screening contingency")
	gens := flag.String("gens", "none", "generator outages to screen: all (every in-service unit), none, or a comma-separated index list into the case's generator table")
	n2 := flag.Bool("n2", false, "also screen every pair of the branch outages as an N-2 contingency, per draw; pairs that island the network are classified without solving")
	skipIntact := flag.Bool("skip-intact", false, "drop the no-outage scenario of each draw")
	trainN := flag.Int("train", 0, "train a warm-start model on this many intact-system samples first (0 = cold screening)")
	epochs := flag.Int("epochs", 0, "training epochs for -train (0 = per-system default, see core.TrainingDefaults)")
	variantName := flag.String("variant", "mtl", "model variant for -train: sep, mtl or smartpgsim")
	workers := flag.Int("workers", 0, "worker pool size (0 = all cores)")
	jsonOut := flag.Bool("json", false, "print a machine-readable JSON summary instead of tables")
	verbose := flag.Bool("v", false, "print one row per scenario")
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops at the first non-flag argument, so every flag after a
		// stray one would be dropped without a word.
		fmt.Fprintf(os.Stderr, "scopf: unexpected argument %q (scopf takes flags only; -n2 takes no value)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	batch.SetDefaultWorkers(*workers)

	c, err := grid.ByName(*caseName)
	if err != nil {
		log.Fatal(err)
	}
	base := opf.Prepare(c)

	var model *mtl.Model
	if *trainN > 0 {
		variant, err := mtl.ParseVariant(*variantName)
		if err != nil {
			log.Fatal(err)
		}
		sys := &core.System{Name: c.Name, Case: c, OPF: base}
		ep := *epochs
		if ep == 0 {
			_, ep = core.TrainingDefaults(c.NB())
		}
		log.Printf("training: %d samples, %d epochs on the intact %s", *trainN, ep, c.Name)
		set, err := sys.GenerateData(*trainN, *seed)
		if err != nil {
			log.Fatal(err)
		}
		train, _ := set.Split(0.8)
		model, err = sys.TrainModel(variant, train, ep, *seed, nil)
		if err != nil {
			log.Fatal(err)
		}
	}

	cons, err := parseContingencies(*contingencies, c, func() []int { return scopf.Contingencies(c) })
	if err != nil {
		log.Fatal(err)
	}
	genCons, err := parseGens(*gens, c)
	if err != nil {
		log.Fatal(err)
	}
	var pairs [][2]int
	if *n2 {
		pairs = scopf.AllPairs(cons)
	}
	draws := sampleDraws(c.NB(), *nDraws, *seed, *spread)
	var scenarios []scopf.Scenario
	for _, f := range draws {
		if !*skipIntact {
			scenarios = append(scenarios, scopf.Scenario{Factors: f, OutBranch: -1})
		}
		for _, l := range cons {
			scenarios = append(scenarios, scopf.Scenario{Factors: f, OutBranch: l})
		}
		for _, g := range genCons {
			scenarios = append(scenarios, scopf.GenScenario(f, g))
		}
		for _, p := range pairs {
			scenarios = append(scenarios, scopf.PairScenario(f, p[0], p[1]))
		}
	}
	if len(scenarios) == 0 {
		log.Fatal("nothing to screen (no draws or no topologies)")
	}
	t0 := time.Now()
	eng := &scopf.Engine{Base: c, Prepared: base, Model: model, Workers: *workers}
	kkt0 := base.KKTStats()
	rep := eng.Run(scenarios)
	// rep.KKT is the outage classes' work; the intact system's own is on base.
	outs, classes, kkt := rep.Outcomes, rep.Classes, rep.KKT
	intactKKT := base.KKTStats().Sub(kkt0)
	elapsed := time.Since(t0)
	sum := scopf.Summarize(outs)

	if *jsonOut {
		printJSON(c.Name, sum, classes, kkt.Add(intactKKT), elapsed)
		return
	}
	perDraw := len(cons) + len(genCons) + len(pairs) + boolInt(!*skipIntact)
	fmt.Printf("case %s: screened %d scenarios (%d draws × %d topologies) in %v — %.1f scenarios/s\n",
		c.Name, sum.Total, len(draws), perDraw, elapsed.Round(time.Millisecond),
		float64(sum.Total)/elapsed.Seconds())
	fmt.Printf("path: topology-aware engine, %s ordering, %d workers\n", base.Ordering(), batch.Workers(*workers))
	fmt.Printf("secure: %d/%d feasible, worst cost %.2f $/hr, mean %.1f iterations\n",
		sum.Feasible, sum.Total, sum.WorstCost, sum.MeanIterations)
	if model != nil {
		fmt.Printf("warm starts: %d accepted (%d fitted to an outage), hit rate %.0f%%\n",
			sum.WarmConverged, sum.Projected, 100*float64(sum.WarmConverged)/float64(sum.Total))
	}
	if sum.Islanded > 0 {
		fmt.Printf("islanding: %d scenarios classified without solving\n", sum.Islanded)
	}
	if sum.Errors > 0 {
		fmt.Printf("errors: %d scenarios failed to solve cleanly — %d stalled, %d iteration limit, %d numeric\n",
			sum.Errors, sum.Stalled, sum.IterLimit, sum.Numeric)
	}
	fmt.Printf("\n%-14s %10s %8s %10s\n", "outage", "scenarios", "#µ", "warm")
	for _, cl := range classes {
		fmt.Printf("%-14s %10d %8d %10s\n", className(c, cl), cl.Scenarios, cl.NIq, cl.WarmMode)
	}
	all := kkt.Add(intactKKT)
	fmt.Printf("KKT: %d symbolic analyses and %d orderings for %d classes — intact system %d, outage classes %d (every outage class factors on the intact system's analysis) — %d numeric refactors, %d fallbacks\n",
		all.Analyses, all.Orderings, len(classes), intactKKT.Analyses, kkt.Analyses, all.Refactors, all.Fallbacks)
	if *verbose {
		fmt.Printf("\n%6s %8s %10s %14s %6s %6s\n", "draw", "outage", "status", "cost ($/hr)", "iters", "warm")
		for i, o := range outs {
			status := "secure"
			switch {
			case o.Err != nil:
				status = "error"
			case o.Islanded:
				status = "islanded"
			case !o.Feasible:
				status = "insecure"
			}
			outage := "-"
			switch {
			case o.Scenario.OutagedGen() >= 0:
				outage = "g" + strconv.Itoa(o.Scenario.OutagedGen())
			case o.Scenario.SecondBranch() >= 0:
				outage = strconv.Itoa(o.Scenario.OutBranch) + "+" + strconv.Itoa(o.Scenario.SecondBranch())
			case o.Scenario.OutBranch >= 0:
				outage = strconv.Itoa(o.Scenario.OutBranch)
			}
			warm := "-"
			if o.WarmUsed {
				warm = "yes"
				if o.Projected {
					warm = "proj"
				}
			}
			fmt.Printf("%6d %8s %10s %14.2f %6d %6s\n", i/perDraw, outage, status, o.Cost, o.Iterations, warm)
		}
	}
}

// className labels an outage class row: "intact", "br 1-4" (branch),
// "br 1-4+3-6" (pair), "gen 2" or "br 1-4 gen 2".
func className(c *grid.Case, cl scopf.ClassInfo) string {
	if cl.Kind == "intact" {
		return "intact"
	}
	var parts []string
	if cl.OutBranch >= 0 {
		br := c.Branches[cl.OutBranch]
		s := fmt.Sprintf("br %d-%d", br.From, br.To)
		if cl.OutBranch2 >= 0 {
			b2 := c.Branches[cl.OutBranch2]
			s += fmt.Sprintf("+%d-%d", b2.From, b2.To)
		}
		parts = append(parts, s)
	}
	if cl.OutGen >= 0 {
		parts = append(parts, fmt.Sprintf("gen %d", cl.OutGen))
	}
	return strings.Join(parts, " ")
}

// printJSON emits the machine-readable summary (the cmd-line analogue of
// POST /v1/screen's response).
func printJSON(name string, sum scopf.Summary, classes []scopf.ClassInfo, kkt sparse.CacheStats, elapsed time.Duration) {
	cls := make([]map[string]any, 0, len(classes))
	for _, cl := range classes {
		cls = append(cls, map[string]any{
			"out_branch": cl.OutBranch, "out_branch2": cl.OutBranch2,
			"out_gen": cl.OutGen, "kind": cl.Kind, "scenarios": cl.Scenarios,
			"nmu": cl.NIq, "warm_mode": cl.WarmMode, "islanded": cl.Islanded,
			"kkt_analyses": cl.KKT.Analyses,
		})
	}
	report := map[string]any{
		"case":              name,
		"scenarios":         sum.Total,
		"feasible":          sum.Feasible,
		"warm_converged":    sum.WarmConverged,
		"projected":         sum.Projected,
		"islanded":          sum.Islanded,
		"errors":            sum.Errors,
		"stalled":           sum.Stalled,
		"iteration_limit":   sum.IterLimit,
		"numeric":           sum.Numeric,
		"mean_iterations":   sum.MeanIterations,
		"worst_cost":        sum.WorstCost,
		"elapsed_us":        elapsed.Microseconds(),
		"scenarios_per_sec": float64(sum.Total) / elapsed.Seconds(),
		"classes":           cls,
		"kkt_analyses":      kkt.Analyses,
		"kkt_orderings":     kkt.Orderings,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(report)
}

// parseGens resolves the -gens flag; indices address Case.Gens. Explicit
// entries must name in-service units ("all" keeps only cases where the
// remaining fleet still has at least one other active unit, matching
// scopf.GenContingencies).
func parseGens(s string, c *grid.Case) ([]int, error) {
	switch s {
	case "all":
		return scopf.GenContingencies(c), nil
	case "none", "":
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		g, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -gens entry %q: %v", p, err)
		}
		if g < 0 || g >= len(c.Gens) {
			return nil, fmt.Errorf("-gens entry %d outside [0, %d) for %s", g, len(c.Gens), c.Name)
		}
		if !c.Gens[g].Status {
			return nil, fmt.Errorf("-gens entry %d: generator at bus %d of %s is out of service", g, c.Gens[g].Bus, c.Name)
		}
		out = append(out, g)
	}
	return out, nil
}

// parseContingencies resolves the -contingencies flag; indices address
// Case.Branches (the full list, not only in-service branches).
// Explicit index lists are restricted to rated in-service branches:
// screening exists to check flow-limit security under outages, and an
// unrated branch carries no flow limit, so naming one is almost always a
// stale index from a different system. The error spells
// out the branch's status and the case's rated count so the fix is
// obvious. ("all" applies the connected-N-1 filter instead, which
// includes unrated branches for coverage parity with the tests.)
func parseContingencies(s string, c *grid.Case, all func() []int) ([]int, error) {
	switch s {
	case "all":
		return all(), nil
	case "none", "":
		return nil, nil
	}
	rated := 0
	for _, br := range c.Branches {
		if br.Status && br.RateA > 0 {
			rated++
		}
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		l, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -contingencies entry %q: %v", p, err)
		}
		if l < 0 || l >= len(c.Branches) {
			return nil, fmt.Errorf("-contingencies entry %d outside [0, %d) for %s", l, len(c.Branches), c.Name)
		}
		br := c.Branches[l]
		switch {
		case !br.Status:
			return nil, fmt.Errorf("-contingencies entry %d: branch %d-%d of %s is out of service", l, br.From, br.To, c.Name)
		case br.RateA <= 0:
			return nil, fmt.Errorf("-contingencies entry %d: branch %d-%d of %s is unrated — explicit contingencies must name rated branches (%s has %d of %d); use -contingencies all for the connected N-1 set",
				l, br.From, br.To, c.Name, c.Name, rated, len(c.Branches))
		}
		out = append(out, l)
	}
	return out, nil
}

// sampleDraws draws per-bus load factors uniformly from [1−spread, 1+spread].
func sampleDraws(nb, n int, seed int64, spread float64) []la.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]la.Vector, n)
	for i := range out {
		f := make(la.Vector, nb)
		for k := range f {
			f[k] = 1 - spread + 2*spread*rng.Float64()
		}
		out[i] = f
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
