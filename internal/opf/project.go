package opf

import (
	"math"

	"repro/internal/grid"
	"repro/internal/la"
)

// Projection maps a warm start expressed in a source instance's layout
// onto the layout of a target instance derived from the same base grid
// — by RebindOutage, RebindGenOutage, RebindRamp, Perturb or any
// composition of them. Entries are matched by identity, not position:
//
//   - X entries by bus (Va, Vm) and by case generator (Pg, Qg);
//   - flow rows of µ/Z by rated case-branch index, from-end and to-end
//     separately;
//   - bound rows of µ/Z by the packed variable they bound, upper and
//     lower separately (the FullInequality order: flow rows, finite
//     upper bounds, finite lower bounds);
//   - λ as-is: both instances have the same buses, hence the same
//     equality rows.
//
// Rows whose identity left the layout (an outaged branch's flow rows, a
// dropped unit's variables and bound rows, a bound that is no longer
// finite) are dropped; rows that entered it (a ramp limit turning an
// infinite bound finite) are seeded with the MIPS cold default. When
// generators were dropped, their real dispatch is re-spread across the
// remaining units in proportion to upward headroom — the screening
// redispatch convention (DESIGN.md §8) — so the projected start
// approximately balances the system instead of starting
// lost-generation short.
//
// A Projection is computed once per (source, target) pair with
// ProjectionTo and applied to any number of starts; it is immutable and
// safe for concurrent use.
type Projection struct {
	src, dst Layout // the lengths a start must have, and gets
	// x and iq give, for every entry of the target X and µ/Z, the source
	// index it is carried from, or -1 to seed it; nil when the vector is
	// unchanged.
	x, iq []int
	lost  []int     // source X indices of the real dispatch of units absent from the target
	pmax  la.Vector // target upper bounds of the Pg block
}

// seedRow is the µ and z value of an inequality row with no source row
// to carry: mips.Solve floors warm µ and z at 1e-10 and recomputes the
// barrier from z·µ, so the cold defaults blend safely with carried rows.
const seedRow = 1.0

// ProjectionTo computes the projection from o's layout onto dst's. It
// returns nil — apply it and the start is cold — when the two instances
// are not derived from one base grid (different bus, generator or
// branch tables) or dst has a variable o lacks, which no start in o's
// layout can supply.
func (o *OPF) ProjectionTo(dst *OPF) *Projection {
	nb, sg, sbr := o.Lay.NB, o.Case.Gens, o.Case.Branches
	if dst == nil || dst.Lay.NB != nb || len(dst.Case.Gens) != len(sg) || len(dst.Case.Branches) != len(sbr) {
		return nil
	}
	dg, dbr := dst.Case.Gens, dst.Case.Branches
	p := &Projection{src: o.Lay, dst: dst.Lay, pmax: dst.xmax[dst.Lay.PgOff : dst.Lay.PgOff+dst.Lay.NG]}

	// Every variable the case could have, in packing order — Va and Vm
	// by bus, then Pg and Qg by case generator — is present in an
	// instance unless it belongs to a unit that is out of service there.
	nv := 2*nb + 2*len(sg)
	present := func(gens []grid.Gen, v int) bool { return v < 2*nb || gens[(v-2*nb)%len(gens)].Status }

	x := make([]int, 0, dst.Lay.NX)
	vars := 0 // source variables passed so far
	for v := 0; v < nv; v++ {
		inSrc, inDst := present(sg, v), present(dg, v)
		switch {
		case inDst && !inSrc:
			return nil
		case inDst:
			x = append(x, vars)
		case inSrc && v < 2*nb+len(sg): // a dropped unit's Pg
			p.lost = append(p.lost, vars)
		}
		if inSrc {
			vars++
		}
	}

	// µ/Z: from-end then to-end flow rows by rated case branch, then the
	// finite upper bounds and the finite lower bounds by variable.
	iq := make([]int, 0, dst.Lay.NIq)
	rows := 0 // source rows passed so far
	row := func(inSrc, inDst bool) {
		switch {
		case inDst && inSrc:
			iq = append(iq, rows)
		case inDst:
			iq = append(iq, -1)
		}
		if inSrc {
			rows++
		}
	}
	for end := 0; end < 2; end++ {
		for l := range sbr {
			row(sbr[l].Status && sbr[l].RateA > 0, dbr[l].Status && dbr[l].RateA > 0)
		}
	}
	for _, side := range []struct {
		src, dst la.Vector
		inf      int
	}{{o.xmax, dst.xmax, 1}, {o.xmin, dst.xmin, -1}} {
		si, di := 0, 0 // packed positions of the variable in each instance
		for v := 0; v < nv; v++ {
			inSrc, inDst := present(sg, v), present(dg, v)
			row(inSrc && !math.IsInf(side.src[si], side.inf), inDst && !math.IsInf(side.dst[di], side.inf))
			if inSrc {
				si++
			}
			if inDst {
				di++
			}
		}
	}
	p.x, p.iq = unlessIdentity(x, vars), unlessIdentity(iq, rows)
	return p
}

// unlessIdentity returns idx, or nil when idx carries an n-entry source
// whole and in place.
func unlessIdentity(idx []int, n int) []int {
	if len(idx) != n {
		return idx
	}
	for i, from := range idx {
		if from != i {
			return idx
		}
	}
	return nil
}

// Apply maps st onto the target layout. A nil projection or a nil start
// yields nil (a cold start). Malformed components of st — wrong length
// for the source layout — are dropped rather than remapped, degrading to
// a partial start: MIPS requires exact lengths of whatever it is given.
// Components the projection leaves unchanged are passed through, not
// copied.
func (p *Projection) Apply(st *Start) *Start {
	if p == nil || st == nil {
		return nil
	}
	out := &Start{}
	if len(st.X) == p.src.NX {
		out.X = gather(st.X, p.x)
		for _, i := range p.lost { // non-empty only when gather copied
			p.redispatch(out.X, st.X[i])
		}
	}
	if len(st.Lam) == p.src.NEq {
		out.Lam = st.Lam
	}
	if len(st.Mu) == p.src.NIq && len(st.Z) == p.src.NIq {
		out.Mu, out.Z = gather(st.Mu, p.iq), gather(st.Z, p.iq)
	}
	return out
}

// gather builds the target vector entry by entry; a nil idx means the
// layout is unchanged and v itself is the result.
func gather(v la.Vector, idx []int) la.Vector {
	if idx == nil {
		return v
	}
	out := make(la.Vector, len(idx))
	for i, from := range idx {
		out[i] = seedRow
		if from >= 0 {
			out[i] = v[from]
		}
	}
	return out
}

// redispatch spreads a dropped unit's real dispatch over the target's
// units in proportion to their upward headroom, clipped at Pmax.
func (p *Projection) redispatch(x la.Vector, lost float64) {
	if !(lost > 0) { // also skips a NaN prediction
		return
	}
	pg := x[p.dst.PgOff : p.dst.PgOff+p.dst.NG]
	total := 0.0
	for g, hi := range p.pmax {
		if h := hi - pg[g]; h > 0 && !math.IsInf(h, 1) {
			total += h
		}
	}
	if total <= 0 {
		return
	}
	for g, hi := range p.pmax {
		if h := hi - pg[g]; h > 0 && !math.IsInf(h, 1) {
			pg[g] += math.Min(lost*h/total, h)
		}
	}
}
