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

// sameMatrix reports whether got is want bit for bit in value: every
// entry want stores, at the same value, and any further stored entry an
// exact zero — the same matrix, possibly on a larger pattern.
func sameMatrix(got, want *sparse.CSC) bool {
	if got == nil || want == nil {
		return got == want
	}
	if got.NRows != want.NRows || got.NCols != want.NCols {
		return false
	}
	for j := 0; j < got.NCols; j++ {
		q := want.ColPtr[j]
		for p := got.ColPtr[j]; p < got.ColPtr[j+1]; p++ {
			if q < want.ColPtr[j+1] && want.RowIdx[q] == got.RowIdx[p] {
				if got.Val[p] != want.Val[q] {
					return false
				}
				q++
			} else if got.Val[p] != 0 {
				return false
			}
		}
		if q != want.ColPtr[j+1] {
			return false
		}
	}
	return true
}

// survivors returns o's columns and flow rows that no outage decoupled,
// in order: the positions of a fresh Prepare of o's outaged case.
func survivors(o *OPF) (cols, rows []int) {
	units := o.outUnits
	for i := 0; i < o.Lay.NX; i++ {
		g := i - o.Lay.PgOff
		if i >= o.Lay.QgOff {
			g = i - o.Lay.QgOff
		}
		if i < o.Lay.PgOff || !slices.Contains(units, g) {
			cols = append(cols, i)
		}
	}
	dec := o.Decoupled()
	for r := 0; r < 2*o.Lay.NLRated; r++ {
		if !slices.Contains(dec, r) {
			rows = append(rows, r)
		}
	}
	return cols, rows
}

// restrict returns m's submatrix on the given ascending rows (nil: all)
// and columns, and whether every stored entry outside them is an exact
// zero.
func restrict(m *sparse.CSC, rows, cols []int) (*sparse.CSC, bool) {
	at := make([]int, m.NRows)
	for i := range at {
		at[i] = i
	}
	if rows != nil {
		for i := range at {
			at[i] = -1
		}
		for k, r := range rows {
			at[r] = k
		}
	}
	out := &sparse.CSC{NRows: m.NRows, NCols: len(cols), ColPtr: []int{0}}
	if rows != nil {
		out.NRows = len(rows)
	}
	zeros := true
	kept := map[int]bool{}
	for _, j := range cols {
		kept[j] = true
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if r := at[m.RowIdx[p]]; r >= 0 {
				out.RowIdx = append(out.RowIdx, r)
				out.Val = append(out.Val, m.Val[p])
			} else {
				zeros = zeros && m.Val[p] == 0
			}
		}
		out.ColPtr = append(out.ColPtr, len(out.RowIdx))
	}
	for j := 0; j < m.NCols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1] && !kept[j]; p++ {
			zeros = zeros && m.Val[p] == 0
		}
	}
	return out, zeros
}

// gatherAt returns v's entries at idx.
func gatherAt(v la.Vector, idx []int) la.Vector {
	out := make(la.Vector, len(idx))
	for k, i := range idx {
		out[k] = v[i]
	}
	return out
}

// sameOnSurvivors pins an outage class got, derived from base as a value
// edit on the intact problem, against want, a fresh Prepare of the
// outaged case. got has base's layout, and at an
// interior point with nonzero multipliers, everything a KKT system is
// assembled from — objective gradient, both constraint blocks with their
// Jacobians, the Lagrangian Hessian, the bounds — agrees bit for bit on
// the surviving columns and rows (got may store more entries there, as
// exact zeros). The decoupled rows and columns are constant: a dropped
// unit's gradient entries and every Jacobian and Hessian entry of a
// decoupled column or row are stored zeros — even under a nonzero µ — and
// an outaged branch's flow rows read −rate².
func sameOnSurvivors(t *testing.T, name string, base, got, want *OPF) {
	t.Helper()
	cols, rows := survivors(got)
	if got.Lay != base.Lay || len(cols) != want.Lay.NX || len(rows) != 2*want.Lay.NLRated {
		t.Fatalf("%s: layout %+v with %d/%d survivors, rebuild %+v", name, got.Lay, len(cols), len(rows), want.Lay)
	}
	gp, wp := got.Problem(), want.Problem()
	wx := want.DefaultStart()
	for i := range wx {
		wx[i] += 0.01 * math.Sin(float64(i+1))
	}
	gx := got.DefaultStart()
	for k, i := range cols {
		gx[i] = wx[k]
	}
	lam := make(la.Vector, want.Lay.NEq)
	for i := range lam {
		lam[i] = 1 + 0.1*math.Cos(float64(i))
	}
	wmu, gmu := make(la.Vector, len(rows)), make(la.Vector, 2*got.Lay.NLRated)
	for i := range gmu {
		gmu[i] = 7 // a decoupled row's µ must not reach the Hessian
	}
	for k, r := range rows {
		wmu[k] = 0.5 + 0.1*math.Sin(float64(k))
		gmu[r] = wmu[k]
	}
	if !slices.Equal(gatherAt(gp.XMin, cols), wp.XMin) || !slices.Equal(gatherAt(gp.XMax, cols), wp.XMax) {
		t.Fatalf("%s: bounds differ from the rebuild's", name)
	}
	gf, gdf := gp.F(gx)
	wf, wdf := wp.F(wx)
	if gf != wf || !slices.Equal(gatherAt(gdf, cols), wdf) {
		t.Fatalf("%s: objective differs from the rebuild's", name)
	}
	for i, d := range gdf {
		if !slices.Contains(cols, i) && d != 0 {
			t.Fatalf("%s: a dropped unit has cost gradient %v at column %d", name, d, i)
		}
	}
	gg, gjg := gp.G(gx)
	wg, wjg := wp.G(wx)
	if sub, zeros := restrict(gjg, nil, cols); !slices.Equal(gg, wg) || !zeros || !sameMatrix(sub, wjg) {
		t.Fatalf("%s: equality block differs from the rebuild's", name)
	}
	gh, gjh := gp.H(gx)
	wh, wjh := wp.H(wx)
	if gjh != nil {
		sub, zeros := restrict(gjh, rows, cols)
		if !slices.Equal(gatherAt(gh, rows), wh) || !zeros || !sameMatrix(sub, wjh) {
			t.Fatalf("%s: inequality block differs from the rebuild's", name)
		}
		nlr := got.Lay.NLRated
		for r, h := range gh {
			if !slices.Contains(rows, r) && h != -got.rates2[r%nlr] {
				t.Fatalf("%s: decoupled flow row %d reads %v, want −rate² %v", name, r, h, -got.rates2[r%nlr])
			}
		}
	} else if wjh != nil {
		t.Fatalf("%s: inequality block missing", name)
	}
	if sub, zeros := restrict(gp.Hess(gx, lam, gmu), cols, cols); !zeros || !sameMatrix(sub, wp.Hess(wx, lam, wmu)) {
		t.Fatalf("%s: Lagrangian Hessian differs from the rebuild's", name)
	}
}

// rebuildCostTol is the relative cost agreement asserted between a
// converged outage solve and the same solve of the rebuilt case, which
// solves the equivalent smaller problem on another pattern in another
// elimination order (measured on the MatchesPrepare tests' six
// trajectories: equal iteration counts, costs ≤ 1.8e-11 apart).
const rebuildCostTol = 1e-9

// sameTrajectory requires two solves to agree bit for bit: verdict,
// iteration count, cost and every primal entry, failed solves included.
func sameTrajectory(t *testing.T, name string, gr *Result, gerr error, wr *Result, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gr.Converged != wr.Converged || gr.Iterations != wr.Iterations {
		t.Fatalf("%s: solves differ: (%v,%v,%d) vs (%v,%v,%d)",
			name, gerr, gr.Converged, gr.Iterations, werr, wr.Converged, wr.Iterations)
	}
	if !sameBits(gr.Cost, wr.Cost) || !slices.EqualFunc(gr.X, wr.X, sameBits) {
		t.Fatalf("%s: cost %v vs %v, or X, not bit-identical", name, gr.Cost, wr.Cost)
	}
}

// sameBits is bit equality, which a failed solve's NaN iterates have too.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// solvesLikeRebuild cold-solves the outage class got on its default cache
// — the parent's analysis, with no ordering or analysis of its own — and
// on a private one, which must be bit-identical (the pattern is the
// parent's), and requires the rebuild want to reach the same verdict in
// the same number of iterations and, converged, the same optimum to
// rebuildCostTol. It returns got's result.
func solvesLikeRebuild(t *testing.T, name string, got, want *OPF) *Result {
	t.Helper()
	gr, gerr := got.Solve(nil, Options{})
	if st := got.KKTStats(); st.Analyses != 0 || st.Orderings != 0 {
		t.Fatalf("%s: default solve analyzed for itself: %+v", name, st)
	}
	pr, perr := got.Solve(nil, Options{KKT: sparse.NewSymbolicCache(got.Ordering())})
	sameTrajectory(t, name+" (private analysis)", pr, perr, gr, gerr)
	wr, werr := want.Solve(nil, Options{})
	if (gerr == nil) != (werr == nil) || gr.Converged != wr.Converged || gr.Iterations != wr.Iterations {
		t.Fatalf("%s: value edit (%v,%v,%d), rebuild (%v,%v,%d)",
			name, gerr, gr.Converged, gr.Iterations, werr, wr.Converged, wr.Iterations)
	}
	if rel := math.Abs(gr.Cost-wr.Cost) / math.Abs(wr.Cost); gr.Converged && rel > rebuildCostTol {
		t.Fatalf("%s: cost %v as a value edit, rebuild %v (relative %g)", name, gr.Cost, wr.Cost, rel)
	}
	return gr
}

// rebuild returns a fresh Prepare of c with the given edit applied.
func rebuild(t *testing.T, c *grid.Case, edit func(*grid.Case)) *OPF {
	t.Helper()
	cc := c.Clone()
	edit(cc)
	if err := cc.Normalize(); err != nil {
		t.Fatal(err)
	}
	return Prepare(cc)
}

// RebindOutage is a value edit on the intact problem that a fresh Prepare
// of the outaged case must agree with: for every connected outage the
// instance keeps the intact layout, and on the surviving rows everything
// its KKT systems are assembled from is the rebuild's bit for bit, the
// outaged branch's flow rows constant with stored-zero derivatives
// (sameOnSurvivors). One outage per case is solved to the end
// (solvesLikeRebuild).
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
			want := rebuild(t, c, func(cc *grid.Case) { cc.Branches[branch].Status = false })
			sameOnSurvivors(t, name, base, got, want)
			if !solved { // one cold trajectory per case keeps the loop short
				solved = true
				solvesLikeRebuild(t, name, got, want)
			}
		}
	}
}

// markedStart returns a start in o's layout whose entries encode their
// own index, so an edit reads off the adapted values.
func markedStart(o *OPF) *Start {
	st := &Start{
		X:   make(la.Vector, o.Lay.NX),
		Lam: make(la.Vector, o.Lay.NEq),
		Mu:  make(la.Vector, o.Lay.NIq),
		Z:   make(la.Vector, o.Lay.NIq),
	}
	for i := range st.X {
		st.X[i] = -float64(i + 1)
	}
	for i := range st.Mu {
		st.Mu[i] = float64(i)
		st.Z[i] = float64(i) + 0.5
	}
	return st
}

// checkAdapted requires AdaptStart to have reset exactly the rows in
// want — to µ = 1e-10 and the given z — and carried every other µ/Z entry
// of st, without writing to st.
func checkAdapted(t *testing.T, name string, st, got *Start, want map[int]float64) {
	t.Helper()
	if &got.Mu[0] == &st.Mu[0] || &got.Z[0] == &st.Z[0] {
		t.Fatalf("%s: µ/Z edited in place", name)
	}
	for i := range got.Mu {
		wantMu, wantZ := float64(i), float64(i)+0.5
		if z, ok := want[i]; ok {
			wantMu, wantZ = 1e-10, z
		}
		if got.Mu[i] != wantMu || got.Z[i] != wantZ || st.Mu[i] != float64(i) || st.Z[i] != float64(i)+0.5 {
			t.Fatalf("%s: µ/z[%d] = %v/%v want %v/%v (source %v/%v)", name, i, got.Mu[i], got.Z[i], wantMu, wantZ, st.Mu[i], st.Z[i])
		}
	}
}

// Every outage of case9 (all branches rated) keeps the layout and
// decouples exactly the outaged branch's from- and to-flow rows (its
// position in the rated subset and NLRated above it): AdaptStart gives
// them the constant row's slack, z = rate², and µ at the mips floor, and
// passes X, λ and every other row through.
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
		if o.Lay != base.Lay || !slices.Equal(o.Decoupled(), []int{rl, nlr + rl}) || !o.AdaptsStart() {
			t.Fatalf("branch %d: layout %+v, decoupled rows %v", branch, o.Lay, o.Decoupled())
		}
		st := markedStart(base)
		p := o.AdaptStart(st)
		if &p.X[0] != &st.X[0] || &p.Lam[0] != &st.Lam[0] {
			t.Fatalf("branch %d: a branch outage must pass X and λ through", branch)
		}
		r := c.Branches[branch].RateA / c.BaseMVA
		checkAdapted(t, "branch "+strconv.Itoa(branch), st, p, map[int]float64{rl: r * r, nlr + rl: r * r})
	}
}

// RebindGenOutage is a value edit on the intact problem that a fresh
// Prepare of the outaged case must agree with — the generator-axis mirror
// of TestRebindOutageMatchesPrepare: for every unit the instance keeps the
// intact layout and bounds, agrees with the rebuild on the surviving
// columns, and decouples the unit's columns; one outage per case is solved
// to the end, with the unit's dispatch reported as 0.
func TestRebindGenOutageMatchesPrepare(t *testing.T) {
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14(), grid.Case30()} {
		base := Prepare(c)
		solved := false
		gi := -1 // position of gen among the units
		for gen, g := range c.Gens {
			if !g.Status {
				continue
			}
			gi++
			name := c.Name + " gen " + strconv.Itoa(gen)
			got, err := base.RebindGenOutage(gen)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			gmin, gmax := got.Bounds()
			bmin, bmax := base.Bounds()
			if !slices.Equal(gmin, bmin) || !slices.Equal(gmax, bmax) {
				t.Fatalf("%s: bounds differ from the intact ones", name)
			}
			want := rebuild(t, c, func(cc *grid.Case) { cc.Gens[gen].Status = false })
			sameOnSurvivors(t, name, base, got, want)
			if solved { // one slow solve per case
				continue
			}
			solved = true
			r := solvesLikeRebuild(t, name, got, want)
			if len(r.Pg) != base.Lay.NG || r.Pg[gi] != 0 || r.Qg[gi] != 0 {
				t.Fatalf("%s: reported %d units, the dropped one at %v MW %v MVAr", name, len(r.Pg), r.Pg[gi], r.Qg[gi])
			}
		}
	}
}

// AdaptStart on a generator outage restarts the dropped unit's Pg/Qg at
// DefaultStart's values, resets exactly its four bound rows to the slack
// there, and redispatches its predicted output: total real dispatch is
// conserved when the remaining units have headroom, and none passes Pmax.
func TestProjectionGenLayoutAndRedispatch(t *testing.T) {
	c := grid.Case9()
	base := Prepare(c)
	lay := base.Lay
	def := base.DefaultStart()
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
		src := st.X.Clone()
		p := o.AdaptStart(st)
		if o.Lay != lay || len(p.X) != lay.NX || &p.Lam[0] != &st.Lam[0] || !slices.Equal(st.X, src) {
			t.Fatalf("gen %d: layout %+v, X %d entries, λ copied or the source X written", gen, o.Lay, len(p.X))
		}
		pg, qg := lay.PgOff+gi, lay.QgOff+gi
		if p.X[pg] != def[pg] || p.X[qg] != def[qg] {
			t.Fatalf("gen %d: dropped unit starts at %v/%v, want DefaultStart's %v/%v", gen, p.X[pg], p.X[qg], def[pg], def[qg])
		}
		// Redispatch conserves total Pg (60 % headroom remains everywhere).
		got := 0.0
		for g := 0; g < lay.NG; g++ {
			if g != gi {
				got += p.X[lay.PgOff+g]
			}
			if p.X[lay.PgOff+g] > o.xmax[lay.PgOff+g] {
				t.Fatalf("gen %d: redispatch overshoots Pmax at unit %d", gen, g)
			}
		}
		if diff := got - total; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("gen %d: redispatched total %v want %v", gen, got, total)
		}
		// The µ/Z rows reset are exactly the four bound rows of the
		// unit's Pg/Qg, in FullInequality order: upper bounds of every
		// variable but the angles, then lower bounds likewise.
		want := map[int]float64{}
		row := 2 * lay.NLRated
		for _, upper := range []bool{true, false} {
			for i := lay.VmOff; i < lay.NX; i++ { // every non-angle bound of case9 is finite
				if i == pg || i == qg {
					want[row] = def[i] - base.xmin[i]
					if upper {
						want[row] = base.xmax[i] - def[i]
					}
				}
				row++
			}
		}
		if len(want) != 4 || row != lay.NIq || len(o.Decoupled()) != 4 {
			t.Fatalf("gen %d: %d bound rows of %d walked, want 4 of %d; decoupled %v", gen, len(want), row, lay.NIq, o.Decoupled())
		}
		for _, r := range o.Decoupled() {
			if _, ok := want[r]; !ok {
				t.Fatalf("gen %d: row %d decoupled, want the unit's bound rows", gen, r)
			}
		}
		checkAdapted(t, "gen "+strconv.Itoa(gen), st, p, want)
	}
	// Invalid inputs are rejected.
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
	// case14 is unrated: outages keep the inequality layout.
	o, err := base.RebindOutage(3)
	if err != nil {
		t.Fatal(err)
	}
	if o.Lay != base.Lay {
		t.Error("unrated outage changed the layout")
	}
}
