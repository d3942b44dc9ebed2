package horizon

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/opf"
)

// TestOneLayoutPerGrid pins the invariant every start consumer relies
// on: each derivation of a prepared grid — a load perturbation, every
// branch outage, every generator outage, the trajectory's ramp window
// anchored at a solve, and their compositions — has the base's layout,
// so a start in the base's terms fits it unchanged.
func TestOneLayoutPerGrid(t *testing.T) {
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14(), grid.Case30(), grid.Case57(), grid.Case118(), grid.Case300()} {
		base := opf.Prepare(c)
		sol, err := base.Solve(nil, opf.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		lay := base.Lay
		prevPg := sol.X[lay.PgOff : lay.PgOff+lay.NG]
		ramp := RampFromRange(base, 0.2)
		load := make([]float64, lay.NB)
		for b := range load {
			load[b] = 1.05
		}
		check := func(what string, o *opf.OPF, err error) *opf.OPF {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", c.Name, what, err)
			}
			if o.Lay != lay {
				t.Fatalf("%s %s: layout %+v, want the base's %+v", c.Name, what, o.Lay, lay)
			}
			return o
		}
		// rampOf derives o's ramp window and that window's perturbation.
		rampOf := func(what string, o *opf.OPF) {
			t.Helper()
			r, err := o.RebindRamp(prevPg, ramp, ramp)
			check(what+" + ramp", r, err)
			check(what+" + ramp + load", r.Perturb(load), nil)
			r, err = check(what+" + load", o.Perturb(load), nil).RebindRamp(prevPg, ramp, ramp)
			check(what+" + load + ramp", r, err)
		}
		rampOf("intact", base)
		var lines []int
		var branches []*opf.OPF
		for l, br := range c.Branches {
			if br.Status {
				o, err := base.RebindOutage(l)
				lines, branches = append(lines, l), append(branches, check(fmt.Sprintf("branch %d", l), o, err))
			}
		}
		rampOf("branch", branches[0])
		for g, gen := range c.Gens {
			if !gen.Status {
				continue
			}
			what := fmt.Sprintf("gen %d", g)
			o, err := base.RebindGenOutage(g)
			rampOf(what, check(what, o, err))
			k := g % len(lines)
			what = fmt.Sprintf("branch %d + gen %d", lines[k], g)
			o, err = branches[k].RebindGenOutage(g)
			rampOf(what, check(what, o, err))
			pair := lines[(k+1)%len(lines)]
			o, err = branches[k].RebindOutage(pair)
			check(fmt.Sprintf("branches %d + %d", lines[k], pair), o, err)
		}
	}
}
