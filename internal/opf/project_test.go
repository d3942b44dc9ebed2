package opf

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
)

// naiveLabels names every packed X entry and every inequality row of an
// instance from first principles — the case's status flags and rating
// data and the finiteness of the instance's bounds — independently of
// the identity tables Projection builds. Two instances derived from one
// base grid give the same row the same label.
func naiveLabels(o *OPF) (x, iq []string) {
	c := o.Case
	for _, kind := range []string{"Va", "Vm"} {
		for b := range c.Buses {
			x = append(x, fmt.Sprintf("%s%d", kind, b))
		}
	}
	for _, kind := range []string{"Pg", "Qg"} {
		for g, gen := range c.Gens {
			if gen.Status {
				x = append(x, fmt.Sprintf("%s%d", kind, g))
			}
		}
	}
	for _, end := range []string{"Sf", "St"} {
		for l, br := range c.Branches {
			if br.Status && br.RateA > 0 {
				iq = append(iq, fmt.Sprintf("%s%d", end, l))
			}
		}
	}
	xmin, xmax := o.Bounds()
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
	return x, iq
}

// checkProjection applies src→dst to a start whose every entry is
// unique and asserts the row-identity contract: exact target lengths,
// carried entries bit-equal to the source entry of the same label,
// entries with no source label seeded, and (by construction of the
// loop over target labels) source-only labels dropped. Pg entries are
// negative so the redispatch step, which is tested on its own, stays
// out of the way.
func checkProjection(t *testing.T, what string, src, dst *OPF) {
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
	sx, siq := naiveLabels(src)
	dx, diq := naiveLabels(dst)
	if len(sx) != src.Lay.NX || len(siq) != src.Lay.NIq || len(dx) != dst.Lay.NX || len(diq) != dst.Lay.NIq {
		t.Fatalf("%s: naive labels %d/%d → %d/%d disagree with layouts %d/%d → %d/%d", what,
			len(sx), len(siq), len(dx), len(diq), src.Lay.NX, src.Lay.NIq, dst.Lay.NX, dst.Lay.NIq)
	}
	xAt, iqAt := map[string]int{}, map[string]int{}
	for i, l := range sx {
		xAt[l] = i
	}
	for i, l := range siq {
		iqAt[l] = i
	}

	p := src.ProjectionTo(dst).Apply(st)
	if p == nil {
		t.Fatalf("%s: no projection between instances of one base grid", what)
	}
	if len(p.X) != dst.Lay.NX || len(p.Lam) != dst.Lay.NEq || len(p.Mu) != dst.Lay.NIq || len(p.Z) != dst.Lay.NIq {
		t.Fatalf("%s: projected lengths X %d λ %d µ %d z %d, want %d/%d/%d/%d", what,
			len(p.X), len(p.Lam), len(p.Mu), len(p.Z), dst.Lay.NX, dst.Lay.NEq, dst.Lay.NIq, dst.Lay.NIq)
	}
	for j, l := range dx {
		i, ok := xAt[l]
		if !ok {
			t.Fatalf("%s: target variable %s has no source", what, l)
		}
		if p.X[j] != st.X[i] {
			t.Fatalf("%s: X[%d] (%s) = %v, want source entry %d = %v", what, j, l, p.X[j], i, st.X[i])
		}
	}
	for j := range p.Lam {
		if p.Lam[j] != st.Lam[j] {
			t.Fatalf("%s: λ[%d] changed", what, j)
		}
	}
	seeded, carried := 0, 0
	for j, l := range diq {
		wantMu, wantZ := 1.0, 1.0 // the MIPS cold default for a row that entered the layout
		if i, ok := iqAt[l]; ok {
			wantMu, wantZ = st.Mu[i], st.Z[i]
			carried++
		} else {
			seeded++
		}
		if p.Mu[j] != wantMu || p.Z[j] != wantZ {
			t.Fatalf("%s: row %d (%s) µ/z = %v/%v, want %v/%v", what, j, l, p.Mu[j], p.Z[j], wantMu, wantZ)
		}
	}
	if carried+seeded != dst.Lay.NIq {
		t.Fatalf("%s: %d carried + %d seeded rows, target has %d", what, carried, seeded, dst.Lay.NIq)
	}
}

// The projection contract over the whole derivation space the screener
// and the trajectory stepper use: every rated-branch outage, every
// generator outage, every N-2 pair of rated branches (islanding or not
// — only layouts matter here) and branch+generator combinations of the
// embedded systems, in both directions where the reverse is defined.
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
			checkProjection(t, fmt.Sprintf("%s branch %d", c.Name, l), base, o)
		}
		for g, gen := range c.Gens {
			if !gen.Status {
				continue
			}
			o, err := base.RebindGenOutage(g)
			if err != nil {
				t.Fatal(err)
			}
			checkProjection(t, fmt.Sprintf("%s gen %d", c.Name, g), base, o)
			if len(rated) > 0 {
				bo, err := singles[rated[g%len(rated)]].RebindGenOutage(g)
				if err != nil {
					t.Fatal(err)
				}
				checkProjection(t, fmt.Sprintf("%s branch %d + gen %d", c.Name, rated[g%len(rated)], g), base, bo)
			}
			// The reverse direction asks for variables the source lacks.
			if base.ProjectionTo(o) == nil || o.ProjectionTo(base) != nil {
				t.Fatalf("%s gen %d: projection must exist onto the outage and not back", c.Name, g)
			}
		}
		for i, l1 := range rated {
			for _, l2 := range rated[i+1:] {
				o, err := singles[l1].RebindOutage(l2)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s pair %d,%d", c.Name, l1, l2)
				checkProjection(t, what, base, o)
				checkProjection(t, what+" from the first outage", singles[l1], o)
			}
		}
	}
}

// Ramp targets: tightening turns infinite Pg bounds finite (rows enter
// the layout and are seeded), a later step with that direction
// unconstrained turns them infinite again (rows leave), and a step can
// follow an outage-derived instance. Every case gets one unit with an
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
		checkProjection(t, c.Name+" base→ramped", base, both)
		checkProjection(t, c.Name+" ramped→base", both, base)
		checkProjection(t, c.Name+" ramped→up-only", both, upOnly)
		checkProjection(t, c.Name+" up-only→ramped", upOnly, both)
		load := make([]float64, base.Lay.NB)
		for i := range load {
			load[i] = 1.05
		}
		checkProjection(t, c.Name+" perturbed step", both, upOnly.Perturb(load))
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
				checkProjection(t, fmt.Sprintf("%s base→outage %d+ramp", c.Name, l), base, ro)
				break
			}
		}
	}
}
