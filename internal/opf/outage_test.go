package opf

import (
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/sparse"
)

// sameCSC reports whether two matrices agree bit for bit, structure
// and values.
func sameCSC(a, b *sparse.CSC) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.NRows == b.NRows && a.NCols == b.NCols && slices.Equal(a.ColPtr, b.ColPtr) &&
		slices.Equal(a.RowIdx, b.RowIdx) && slices.Equal(a.Val, b.Val)
}

// sameProblem requires everything a KKT system is assembled from —
// objective gradient, both constraint blocks with their Jacobians, the
// Lagrangian Hessian, the bounds — to agree bit for bit between two
// instances, at an interior point with nonzero multipliers.
func sameProblem(t *testing.T, name string, got, want *OPF) {
	t.Helper()
	gp, wp := got.Problem(), want.Problem()
	x := want.DefaultStart()
	for i := range x {
		x[i] += 0.01 * math.Sin(float64(i+1))
	}
	lam, mu := make(la.Vector, want.Lay.NEq), make(la.Vector, 2*want.Lay.NLRated)
	for i := range lam {
		lam[i] = 1 + 0.1*math.Cos(float64(i))
	}
	for i := range mu {
		mu[i] = 0.5 + 0.1*math.Sin(float64(i))
	}
	if !slices.Equal(gp.XMin, wp.XMin) || !slices.Equal(gp.XMax, wp.XMax) {
		t.Fatalf("%s: bounds differ from the rebuild's", name)
	}
	gf, gdf := gp.F(x)
	wf, wdf := wp.F(x)
	if gf != wf || !slices.Equal(gdf, wdf) {
		t.Fatalf("%s: objective differs from the rebuild's", name)
	}
	gg, gjg := gp.G(x)
	wg, wjg := wp.G(x)
	if !slices.Equal(gg, wg) || !sameCSC(gjg, wjg) {
		t.Fatalf("%s: equality block differs from the rebuild's", name)
	}
	gh, gjh := gp.H(x)
	wh, wjh := wp.H(x)
	if !slices.Equal(gh, wh) || !sameCSC(gjh, wjh) {
		t.Fatalf("%s: inequality block differs from the rebuild's", name)
	}
	if !sameCSC(gp.Hess(x, lam, mu), wp.Hess(x, lam, mu)) {
		t.Fatalf("%s: Lagrangian Hessian differs from the rebuild's", name)
	}
}

// sameTrajectory requires two solves to agree bit for bit: verdict,
// iteration count, cost and every primal entry.
func sameTrajectory(t *testing.T, name string, gr *Result, gerr error, wr *Result, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gr.Converged != wr.Converged || gr.Iterations != wr.Iterations {
		t.Fatalf("%s: solve diverged from rebuild: (%v,%v,%d) vs (%v,%v,%d)",
			name, gerr, gr.Converged, gr.Iterations, werr, wr.Converged, wr.Iterations)
	}
	if gr.Cost != wr.Cost || !slices.Equal(gr.X, wr.X) {
		t.Fatalf("%s: cost %v vs %v, or X, not bit-identical", name, gr.Cost, wr.Cost)
	}
}

// RebindOutage must reproduce a fresh Prepare of the outaged case bit
// for bit. Pinned on the instance exactly as RebindOutage returns it, for
// every connected outage: identical layout and, at an interior point,
// identical objective, constraint blocks, Jacobians, Hessian and bounds —
// everything its KKT systems are assembled from. For one outage per case
// the whole cold trajectory is pinned too: handed a private cache the
// derived instance analyzes its own pattern, as the rebuild does, and
// every iterate is bit-identical; on its default cache — the parent's
// analysis, another elimination order of the same systems — it reaches
// the rebuild's optimum in the rebuild's iteration count, costs equal to
// parentAnalysisCostTol (TestOutageFleetKeepsParentAnalysis covers the
// fleets).
func TestRebindOutageMatchesPrepare(t *testing.T) {
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14(), grid.Case30()} {
		base := Prepare(c)
		solved := false
		for branch, br := range c.Branches {
			if !br.Status || !grid.ConnectedWithout(c, []int{branch}) {
				continue
			}
			name := c.Name + " branch " + strconv.Itoa(branch)
			got, err := base.RebindOutage(branch)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cc := c.Clone()
			cc.Branches[branch].Status = false
			if err := cc.Normalize(); err != nil {
				t.Fatal(err)
			}
			want := Prepare(cc)
			if got.Lay != want.Lay {
				t.Fatalf("%s: layout %+v want %+v", name, got.Lay, want.Lay)
			}
			sameProblem(t, name, got, want)
			if solved {
				continue // one cold trajectory per case keeps the loop short
			}
			solved = true
			wr, werr := want.Solve(nil, Options{MaxIter: 25})
			pr, perr := got.Solve(nil, Options{MaxIter: 25, KKT: sparse.NewSymbolicCache(got.Ordering())})
			sameTrajectory(t, name+" (private analysis)", pr, perr, wr, werr)
			gr, gerr := got.Solve(nil, Options{MaxIter: 25})
			if st := got.KKTStats(); st.Analyses != 0 || st.Orderings != 0 {
				t.Fatalf("%s: default solve analyzed for itself: %+v", name, st)
			}
			if (gerr == nil) != (werr == nil) || gr.Converged != wr.Converged || gr.Iterations != wr.Iterations {
				t.Fatalf("%s: on the parent's analysis (%v,%v,%d), rebuild (%v,%v,%d)",
					name, gerr, gr.Converged, gr.Iterations, werr, wr.Converged, wr.Iterations)
			}
			if rel := math.Abs(gr.Cost-wr.Cost) / math.Abs(wr.Cost); gr.Converged && rel > parentAnalysisCostTol {
				t.Fatalf("%s: cost %v on the parent's analysis, rebuild %v (relative %g)", name, gr.Cost, wr.Cost, rel)
			}
		}
	}
}

// markedStart returns a start in o's layout whose µ/Z entries encode
// their own row index, so a projection's row mapping reads off the
// projected values.
func markedStart(o *OPF) *Start {
	st := &Start{
		X:   make(la.Vector, o.Lay.NX),
		Lam: make(la.Vector, o.Lay.NEq),
		Mu:  make(la.Vector, o.Lay.NIq),
		Z:   make(la.Vector, o.Lay.NIq),
	}
	for i := range st.Mu {
		st.Mu[i] = float64(i)
		st.Z[i] = float64(i) + 0.5
	}
	return st
}

// Every connected outage of case9 (all branches rated) must keep layout
// bookkeeping consistent: NIq shrinks by 2, and the projection drops
// exactly the outaged branch's from- and to-flow rows (its position in
// the rated subset and NLRated above it), passing X and λ through.
func TestRebindOutageLayoutAndProjection(t *testing.T) {
	c := grid.Case9()
	base := Prepare(c)
	nlr := base.Lay.NLRated
	for branch := range c.Branches {
		o, err := base.RebindOutage(branch)
		if err != nil {
			t.Fatal(err)
		}
		rl := branch // all nine branches are rated and in service
		if o.Lay.NIq != base.Lay.NIq-2 || o.Lay.NLRated != nlr-1 {
			t.Fatalf("branch %d: NIq %d NLRated %d", branch, o.Lay.NIq, o.Lay.NLRated)
		}
		st := markedStart(base)
		p := base.ProjectionTo(o).Apply(st)
		if len(p.Mu) != o.Lay.NIq || len(p.Z) != o.Lay.NIq {
			t.Fatalf("branch %d: projected µ/Z dims %d/%d want %d", branch, len(p.Mu), len(p.Z), o.Lay.NIq)
		}
		if &p.X[0] != &st.X[0] || &p.Lam[0] != &st.Lam[0] {
			t.Fatalf("branch %d: a branch outage must pass X and λ through", branch)
		}
		// The dropped entries are exactly rows rl and nlr+rl.
		wantAt := func(i int) float64 {
			j := i
			if j >= rl {
				j++
			}
			if j >= nlr+rl {
				j++
			}
			return float64(j)
		}
		for i := range p.Mu {
			if p.Mu[i] != wantAt(i) || p.Z[i] != wantAt(i)+0.5 {
				t.Fatalf("branch %d: projected µ/z[%d] = %v/%v want %v", branch, i, p.Mu[i], p.Z[i], wantAt(i))
			}
		}
	}
}

// RebindGenOutage must reproduce a fresh Prepare of the generator-
// outaged case bit for bit: identical layout and bounds across all
// generators, and identical solver trajectories on one outage per case.
// Mirror of TestRebindOutageMatchesPrepare for the generator axis.
func TestRebindGenOutageMatchesPrepare(t *testing.T) {
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14(), grid.Case30()} {
		base := Prepare(c)
		solved := false
		for gen, g := range c.Gens {
			if !g.Status {
				continue
			}
			got, err := base.RebindGenOutage(gen)
			if err != nil {
				t.Fatalf("%s gen %d: %v", c.Name, gen, err)
			}
			cc := c.Clone()
			cc.Gens[gen].Status = false
			if err := cc.Normalize(); err != nil {
				t.Fatal(err)
			}
			want := Prepare(cc)
			if got.Lay != want.Lay {
				t.Fatalf("%s gen %d: layout %+v want %+v", c.Name, gen, got.Lay, want.Lay)
			}
			gmin, gmax := got.Bounds()
			wmin, wmax := want.Bounds()
			for i := range gmin {
				if gmin[i] != wmin[i] || gmax[i] != wmax[i] {
					t.Fatalf("%s gen %d: bounds[%d] differ: [%v,%v] want [%v,%v]",
						c.Name, gen, i, gmin[i], gmax[i], wmin[i], wmax[i])
				}
			}
			if solved {
				continue // layouts checked for all; one slow solve per case
			}
			solved = true
			gr, gerr := got.Solve(nil, Options{MaxIter: 25})
			wr, werr := want.Solve(nil, Options{MaxIter: 25})
			if (gerr == nil) != (werr == nil) || gr.Converged != wr.Converged || gr.Iterations != wr.Iterations {
				t.Fatalf("%s gen %d: solve diverged from rebuild: (%v,%v,%d) vs (%v,%v,%d)",
					c.Name, gen, gerr, gr.Converged, gr.Iterations, werr, wr.Converged, wr.Iterations)
			}
			if gr.Cost != wr.Cost {
				t.Fatalf("%s gen %d: cost %v != %v (not bit-identical)", c.Name, gen, gr.Cost, wr.Cost)
			}
			for i := range gr.X {
				if gr.X[i] != wr.X[i] {
					t.Fatalf("%s gen %d: X[%d] differs", c.Name, gen, i)
				}
			}
		}
	}
}

// The projection onto a generator outage must drop exactly the outaged
// generator's variables and bound rows, and its redispatch must conserve
// total real dispatch when the remaining units have headroom.
func TestProjectionGenLayoutAndRedispatch(t *testing.T) {
	c := grid.Case9()
	base := Prepare(c)
	lay := base.Lay
	for gen := range c.Gens {
		gi := gen // all three units are in service
		o, err := base.RebindGenOutage(gen)
		if err != nil {
			t.Fatal(err)
		}
		st := markedStart(base)
		// A balanced mid-range dispatch: every unit at 40 % of Pmax.
		total := 0.0
		for g := 0; g < lay.NG; g++ {
			st.X[lay.PgOff+g] = 0.4 * base.xmax[lay.PgOff+g]
			total += st.X[lay.PgOff+g]
		}
		p := base.ProjectionTo(o).Apply(st)
		if len(p.X) != o.Lay.NX || len(p.Mu) != o.Lay.NIq || len(p.Z) != o.Lay.NIq {
			t.Fatalf("gen %d: projected dims X %d µ %d Z %d want %d/%d/%d",
				gen, len(p.X), len(p.Mu), len(p.Z), o.Lay.NX, o.Lay.NIq, o.Lay.NIq)
		}
		if len(p.Lam) != lay.NEq {
			t.Fatalf("gen %d: λ resized to %d", gen, len(p.Lam))
		}
		// Redispatch conserves total Pg (60 % headroom remains everywhere).
		got := 0.0
		for g := 0; g < o.Lay.NG; g++ {
			got += p.X[o.Lay.PgOff+g]
		}
		if diff := got - total; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("gen %d: redispatched total %v want %v", gen, got, total)
		}
		// Bounds respected after redispatch.
		for g := 0; g < o.Lay.NG; g++ {
			if p.X[o.Lay.PgOff+g] > o.xmax[o.Lay.PgOff+g] {
				t.Fatalf("gen %d: redispatch overshoots Pmax at unit %d", gen, g)
			}
		}
		// The µ rows dropped are exactly the four bound rows of the
		// outaged unit's Pg/Qg (case9 has no flow-row change here): in
		// FullInequality order, upper bounds of every variable but the
		// angles, then lower bounds likewise.
		var rows []int
		row := 2 * lay.NLRated
		for _, bound := range []la.Vector{base.xmax, base.xmin} {
			for i := lay.VmOff; i < lay.NX; i++ { // every non-angle bound of case9 is finite
				if math.IsInf(bound[i], 0) {
					t.Fatalf("case9 bound %d is not finite", i)
				}
				if i == lay.PgOff+gi || i == lay.QgOff+gi {
					rows = append(rows, row)
				}
				row++
			}
		}
		if len(rows) != 4 || row != lay.NIq {
			t.Fatalf("gen %d: %d bound rows of %d walked, want 4 of %d", gen, len(rows), row, lay.NIq)
		}
		k := 0
		for i, mu := range st.Mu {
			if slices.Contains(rows, i) {
				continue
			}
			if p.Mu[k] != mu {
				t.Fatalf("gen %d: projected µ[%d] = %v want %v", gen, k, p.Mu[k], mu)
			}
			k++
		}
	}
	// Invalid inputs pass through / are rejected.
	if _, err := base.RebindGenOutage(-1); err == nil {
		t.Error("negative generator accepted")
	}
	if _, err := base.RebindGenOutage(len(c.Gens)); err == nil {
		t.Error("out-of-range generator accepted")
	}
	cc := c.Clone()
	cc.Gens[1].Status = false
	if err := cc.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := Prepare(cc).RebindGenOutage(1); err == nil {
		t.Error("already-outaged generator accepted")
	}
}

func TestRebindOutageRejectsBadBranch(t *testing.T) {
	c := grid.Case14()
	base := Prepare(c)
	if _, err := base.RebindOutage(-1); err == nil {
		t.Error("negative branch accepted")
	}
	if _, err := base.RebindOutage(len(c.Branches)); err == nil {
		t.Error("out-of-range branch accepted")
	}
	cc := c.Clone()
	cc.Branches[2].Status = false
	if err := cc.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := Prepare(cc).RebindOutage(2); err == nil {
		t.Error("already-outaged branch accepted")
	}
	// case14 is unrated: outages keep the inequality layout, and the
	// projection onto them passes every component through.
	o, err := base.RebindOutage(3)
	if err != nil {
		t.Fatal(err)
	}
	if o.Lay != base.Lay {
		t.Error("unrated outage changed the layout")
	}
	st := markedStart(base)
	if p := base.ProjectionTo(o).Apply(st); &p.Mu[0] != &st.Mu[0] || &p.X[0] != &st.X[0] {
		t.Error("unrated outage projection copied an unchanged start")
	}
}
