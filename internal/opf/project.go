package opf

import (
	"math"
	"slices"

	"repro/internal/la"
)

// floorMu is the µ of a row the start has nothing to say about: the
// floor mips.Solve clamps warm µ and z to.
const floorMu = 1e-10

// AdaptsStart reports whether o's outages decoupled anything a start in
// the intact problem's terms has values for — the flow rows of a rated
// branch or the columns of a unit — so that AdaptStart edits starts.
func (o *OPF) AdaptsStart() bool { return len(o.outRows)+len(o.outUnits) > 0 }

// Decoupled lists, ascending, the inequality rows (µ/Z positions) o's
// outages decoupled: both flow rows of every outaged rated branch and the
// finite bound rows of every dropped unit. A fresh Prepare of the outaged
// case has none of them, so none is a binding constraint of the outage.
// The slice is o's own; callers must not modify it.
func (o *OPF) Decoupled() []int { return o.decRows }

// decouple records, once per derivation, the rows Decoupled lists and
// their slack z at AdaptStart's start: rate² for a flow row, the constant
// h = −rate²; the distance to the bound at DefaultStart's value for a
// unit's bound row.
func (o *OPF) decouple() {
	z := map[int]float64{}
	for _, l := range o.outRows {
		z[l], z[o.Lay.NLRated+l] = o.rates2[l], o.rates2[l]
	}
	for _, g := range o.outUnits {
		for _, i := range [2]int{o.Lay.PgOff + g, o.Lay.QgOff + g} {
			v := o.interior(i)
			if !math.IsInf(o.xmax[i], 1) {
				z[2*o.Lay.NLRated+finite(o.xmax[:i], 1)] = o.xmax[i] - v
			}
			if !math.IsInf(o.xmin[i], -1) {
				z[2*o.Lay.NLRated+finite(o.xmax, 1)+finite(o.xmin[:i], -1)] = v - o.xmin[i]
			}
		}
	}
	o.decRows, o.decZ = make([]int, 0, len(z)), make(la.Vector, len(z))
	for r := range z {
		o.decRows = append(o.decRows, r)
	}
	slices.Sort(o.decRows)
	for k, r := range o.decRows {
		o.decZ[k] = z[r]
	}
}

// AdaptStart fits a start in the intact problem's terms — an MTL
// prediction, or a solution of an instance without o's outages — to o's
// outages by editing values, never positions. Every decoupled row gets
// its recorded slack (decouple) and µ at the mips floor. A dropped unit's Pg and Qg
// restart at DefaultStart's values, and its predicted real dispatch is
// spread over the remaining units in proportion to their upward headroom,
// clipped at Pmax — the screening redispatch convention (DESIGN.md §8) —
// so the start approximately balances the system instead of starting
// lost-generation short. λ passes through: an outage keeps every bus.
// The edits go to copies: st itself is returned when o has nothing to
// adapt, and a component whose length does not fit o is passed through.
func (o *OPF) AdaptStart(st *Start) *Start {
	if st == nil || !o.AdaptsStart() {
		return st
	}
	lay := o.Lay
	out := *st
	if len(st.Mu) == lay.NIq && len(st.Z) == lay.NIq {
		out.Mu, out.Z = st.Mu.Clone(), st.Z.Clone()
		for k, r := range o.decRows {
			out.Mu[r], out.Z[r] = floorMu, o.decZ[k]
		}
	}
	if len(o.outUnits) > 0 && len(st.X) == lay.NX {
		out.X = st.X.Clone()
		for _, g := range o.outUnits {
			lost := out.X[lay.PgOff+g]
			out.X[lay.PgOff+g], out.X[lay.QgOff+g] = o.interior(lay.PgOff+g), o.interior(lay.QgOff+g)
			o.redispatch(out.X, lost)
		}
	}
	return &out
}

// redispatch spreads a dropped unit's real dispatch over the units still
// in service in proportion to their upward headroom, clipped at Pmax.
func (o *OPF) redispatch(x la.Vector, lost float64) {
	if !(lost > 0) { // also skips a NaN prediction
		return
	}
	pg, pmax := x[o.Lay.PgOff:o.Lay.PgOff+o.Lay.NG], o.xmax[o.Lay.PgOff:]
	headroom := func(g int) float64 {
		if h := pmax[g] - pg[g]; h > 0 && !math.IsInf(h, 1) {
			return o.on(g) * h
		}
		return 0
	}
	total := 0.0
	for g := range pg {
		total += headroom(g)
	}
	for g := range pg {
		if h := headroom(g); h > 0 {
			pg[g] += math.Min(lost*h/total, h)
		}
	}
}
