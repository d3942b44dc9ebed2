package opf

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
)

// naiveLabels names every packed X entry and every inequality row of an
// instance derived from a base case c0, from first principles — c0's
// status flags and rating data and the finiteness of the instance's
// bounds — independently of the instance's own bookkeeping. Two
// instances derived from one base grid give the same row the same label.
// out holds the labels of the entries the instance's outages decoupled
// (a branch or generator in service in c0 and out in o.Case), with the
// value AdaptStart must give them: the X entry, or the row's z.
func naiveLabels(c0 *grid.Case, o *OPF) (x, iq []string, out map[string]float64) {
	out = map[string]float64{}
	xmin, xmax := o.Bounds()
	def := o.DefaultStart()
	for _, kind := range []string{"Va", "Vm"} {
		for b := range c0.Buses {
			x = append(x, fmt.Sprintf("%s%d", kind, b))
		}
	}
	for _, kind := range []string{"Pg", "Qg"} {
		for g, gen := range c0.Gens {
			if gen.Status {
				if !o.Case.Gens[g].Status {
					out[fmt.Sprintf("%s%d", kind, g)] = def[len(x)]
					out[fmt.Sprintf("ub:%s%d", kind, g)] = xmax[len(x)] - def[len(x)]
					out[fmt.Sprintf("lb:%s%d", kind, g)] = def[len(x)] - xmin[len(x)]
				}
				x = append(x, fmt.Sprintf("%s%d", kind, g))
			}
		}
	}
	for _, end := range []string{"Sf", "St"} {
		for l, br := range c0.Branches {
			if br.Status && br.RateA > 0 {
				iq = append(iq, fmt.Sprintf("%s%d", end, l))
				if !o.Case.Branches[l].Status {
					r := br.RateA / c0.BaseMVA
					out[iq[len(iq)-1]] = r * r
				}
			}
		}
	}
	for i, v := range xmax {
		if !math.IsInf(v, 1) {
			iq = append(iq, "ub:"+x[i])
		}
	}
	for i, v := range xmin {
		if !math.IsInf(v, -1) {
			iq = append(iq, "lb:"+x[i])
		}
	}
	return x, iq, out
}

// checkProjection applies carry — the map from src's starts to dst's,
// both derived from c0 — to a start whose every entry is unique and
// asserts the contract: exact target lengths, X and λ carried, every µ/Z
// row carried bit-equal from the source row of the same label, rows with
// no source label seeded, source-only labels dropped (by construction of
// the loop over target labels) — and every entry dst's outages decoupled
// set to the value naiveLabels derives. Pg entries are negative so the
// redispatch step, which is tested on its own, stays out of the way.
func checkProjection(t *testing.T, what string, c0 *grid.Case, src, dst *OPF, carry func(*Start) *Start) {
	t.Helper()
	st := &Start{
		X:   make(la.Vector, src.Lay.NX),
		Lam: make(la.Vector, src.Lay.NEq),
		Mu:  make(la.Vector, src.Lay.NIq),
		Z:   make(la.Vector, src.Lay.NIq),
	}
	for i := range st.X {
		st.X[i] = -float64(i + 1)
	}
	for i := range st.Lam {
		st.Lam[i] = float64(i) + 0.125
	}
	for i := range st.Mu {
		st.Mu[i] = float64(i) + 2.25
		st.Z[i] = float64(i) + 2.5
	}
	sx, siq, _ := naiveLabels(c0, src)
	dx, diq, out := naiveLabels(c0, dst)
	if len(sx) != src.Lay.NX || len(siq) != src.Lay.NIq || len(dx) != dst.Lay.NX || len(diq) != dst.Lay.NIq {
		t.Fatalf("%s: naive labels %d/%d → %d/%d disagree with layouts %d/%d → %d/%d", what,
			len(sx), len(siq), len(dx), len(diq), src.Lay.NX, src.Lay.NIq, dst.Lay.NX, dst.Lay.NIq)
	}
	iqAt := map[string]int{}
	for i, l := range siq {
		iqAt[l] = i
	}

	p := carry(st)
	if p == nil {
		t.Fatalf("%s: no start carried between instances of one base grid", what)
	}
	if len(p.X) != dst.Lay.NX || len(p.Lam) != dst.Lay.NEq || len(p.Mu) != dst.Lay.NIq || len(p.Z) != dst.Lay.NIq {
		t.Fatalf("%s: projected lengths X %d λ %d µ %d z %d, want %d/%d/%d/%d", what,
			len(p.X), len(p.Lam), len(p.Mu), len(p.Z), dst.Lay.NX, dst.Lay.NEq, dst.Lay.NIq, dst.Lay.NIq)
	}
	for j, l := range dx {
		want, ok := out[l]
		if !ok {
			want = st.X[j]
		}
		if p.X[j] != want {
			t.Fatalf("%s: X[%d] (%s) = %v, want %v", what, j, l, p.X[j], want)
		}
	}
	for j := range p.Lam {
		if p.Lam[j] != st.Lam[j] {
			t.Fatalf("%s: λ[%d] changed", what, j)
		}
	}
	for j, l := range diq {
		wantMu, wantZ := 1.0, 1.0 // the MIPS cold default for a row that entered the layout
		if z, ok := out[l]; ok {
			wantMu, wantZ = 1e-10, z
		} else if i, ok := iqAt[l]; ok {
			wantMu, wantZ = st.Mu[i], st.Z[i]
		}
		if p.Mu[j] != wantMu || p.Z[j] != wantZ {
			t.Fatalf("%s: row %d (%s) µ/z = %v/%v, want %v/%v", what, j, l, p.Mu[j], p.Z[j], wantMu, wantZ)
		}
	}
}

// The value-edit contract over the whole derivation space the screener
// uses: every rated-branch outage, every generator outage, every N-2 pair
// of rated branches (islanding or not — only values matter here) and
// branch+generator combinations of the embedded systems all keep the base
// layout, and the target edits a start carried onto it (AdaptStart),
// never remaps it.
func TestProjectionRowIdentityOutages(t *testing.T) {
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14(), grid.Case30(), grid.Case57()} {
		base := Prepare(c)
		var rated []int
		for l, br := range c.Branches {
			if br.Status && br.RateA > 0 {
				rated = append(rated, l)
			}
		}
		singles := map[int]*OPF{}
		for _, l := range rated {
			o, err := base.RebindOutage(l)
			if err != nil {
				t.Fatal(err)
			}
			singles[l] = o
			checkProjection(t, fmt.Sprintf("%s branch %d", c.Name, l), c, base, o, o.AdaptStart)
		}
		for g, gen := range c.Gens {
			if !gen.Status {
				continue
			}
			o, err := base.RebindGenOutage(g)
			if err != nil {
				t.Fatal(err)
			}
			checkProjection(t, fmt.Sprintf("%s gen %d", c.Name, g), c, base, o, o.AdaptStart)
			if len(rated) > 0 {
				bo, err := singles[rated[g%len(rated)]].RebindGenOutage(g)
				if err != nil {
					t.Fatal(err)
				}
				checkProjection(t, fmt.Sprintf("%s branch %d + gen %d", c.Name, rated[g%len(rated)], g), c, base, bo, bo.AdaptStart)
			}
		}
		for i, l1 := range rated {
			for _, l2 := range rated[i+1:] {
				o, err := singles[l1].RebindOutage(l2)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s pair %d,%d", c.Name, l1, l2)
				checkProjection(t, what, c, base, o, o.AdaptStart)
				checkProjection(t, what+" from the first outage", c, singles[l1], o, o.AdaptStart)
			}
		}
	}
}

// Ramp targets: tightening turns infinite Pg bounds finite (rows enter
// the layout and are seeded), a later step with that direction
// unconstrained turns them infinite again (rows leave), and a step can
// follow a branch- or generator-outage instance, which edits the
// projected start for its outage. Every case gets one unit with an
// unbounded range so all three happen.
func TestProjectionRowIdentityRamp(t *testing.T) {
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14(), grid.Case30(), grid.Case57()} {
		c.Gens[0].Pmax = math.Inf(1)
		c.Gens[1].Pmin = math.Inf(-1)
		base := Prepare(c)
		ng := base.Lay.NG
		anchor := make(la.Vector, ng)
		finite := make(la.Vector, ng)
		open := make(la.Vector, ng)
		for g := range anchor {
			anchor[g] = 0.1
			finite[g] = 0.05
			open[g] = math.Inf(1)
		}
		both, err := base.RebindRamp(anchor, finite, finite)
		if err != nil {
			t.Fatal(err)
		}
		upOnly, err := base.RebindRamp(anchor, finite, open)
		if err != nil {
			t.Fatal(err)
		}
		if both.Lay.NIq != base.Lay.NIq+2 || upOnly.Lay.NIq != base.Lay.NIq+1 {
			t.Fatalf("%s: ramp NIq %d/%d, want base %d +2/+1", c.Name, both.Lay.NIq, upOnly.Lay.NIq, base.Lay.NIq)
		}
		checkProjection(t, c.Name+" base→ramped", c, base, both, base.ProjectionTo(both).Apply)
		checkProjection(t, c.Name+" ramped→base", c, both, base, both.ProjectionTo(base).Apply)
		checkProjection(t, c.Name+" ramped→up-only", c, both, upOnly, both.ProjectionTo(upOnly).Apply)
		checkProjection(t, c.Name+" up-only→ramped", c, upOnly, both, upOnly.ProjectionTo(both).Apply)
		load := make([]float64, base.Lay.NB)
		for i := range load {
			load[i] = 1.05
		}
		step := upOnly.Perturb(load)
		checkProjection(t, c.Name+" perturbed step", c, both, step, both.ProjectionTo(step).Apply)
		for l, br := range c.Branches {
			if br.Status && br.RateA > 0 {
				o, err := base.RebindOutage(l)
				if err != nil {
					t.Fatal(err)
				}
				ro, err := o.RebindRamp(anchor, finite, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkProjection(t, fmt.Sprintf("%s base→outage %d+ramp", c.Name, l), c, base, ro,
					func(st *Start) *Start { return ro.AdaptStart(base.ProjectionTo(ro).Apply(st)) })
				break
			}
		}
		// Unit 0's new Pmax row lands before unit 1's bound rows, so the
		// ramp must move the rows unit 1's outage decoupled.
		o, err := base.RebindGenOutage(1)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := o.RebindRamp(anchor, finite, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkProjection(t, c.Name+" base→gen 1 out+ramp", c, base, rg,
			func(st *Start) *Start { return rg.AdaptStart(base.ProjectionTo(rg).Apply(st)) })
	}
}
