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

// Projection carries a start from one instance of a base grid to another:
// X, λ and the flow rows pass as they are, µ/Z bound rows are matched by
// the variable they bound — a row RebindRamp made finite enters seeded
// with the mips cold default (seedRow), a row made infinite again leaves
// — RebindRamp's newly finite rows being the only change of layout. It
// carries no outage edit: a target with outages fits the carried start
// itself (AdaptStart). The trajectory stepper chains ramped steps through
// it. A Projection is immutable and safe for concurrent use.
type Projection struct{ src, dst *OPF }

// seedRow is the µ and z value of an inequality row with no source row
// to carry: mips.Solve floors warm µ and z at 1e-10 and recomputes the
// barrier from z·µ, so the cold defaults blend safely with carried rows.
const seedRow = 1.0

// ProjectionTo returns the projection from o onto dst, or nil — apply it
// and the start is cold — when the two instances are not derived from one
// base grid (different bus, generator or branch tables, or layouts).
func (o *OPF) ProjectionTo(dst *OPF) *Projection {
	if dst == nil || dst.Lay.NB != o.Lay.NB || dst.Lay.NX != o.Lay.NX || dst.Lay.NLRated != o.Lay.NLRated ||
		len(dst.Case.Gens) != len(o.Case.Gens) || len(dst.Case.Branches) != len(o.Case.Branches) {
		return nil
	}
	return &Projection{o, dst}
}

// Apply maps st onto the target. A nil projection or a nil start yields
// nil (a cold start). Malformed components of st — wrong length for the
// source layout — are dropped, degrading to a partial start: MIPS
// requires exact lengths of whatever it is given. Components nothing
// changes are passed through, not copied.
func (p *Projection) Apply(st *Start) *Start {
	if p == nil || st == nil {
		return nil
	}
	lay, out := p.src.Lay, &Start{}
	if len(st.X) == lay.NX {
		out.X = st.X
	}
	if len(st.Lam) == lay.NEq {
		out.Lam = st.Lam
	}
	if len(st.Mu) == lay.NIq && len(st.Z) == lay.NIq {
		out.Mu, out.Z = p.rows(st.Mu), p.rows(st.Z)
	}
	return out
}

// rows carries a µ or z vector onto the target's inequality rows; v
// itself when both instances bound the same variables.
func (p *Projection) rows(v la.Vector) la.Vector {
	n := 2 * p.src.Lay.NLRated
	out, from, moved := slices.Clone(v[:n]), n, false
	for _, side := range []struct {
		src, dst la.Vector
		inf      int
	}{{p.src.xmax, p.dst.xmax, 1}, {p.src.xmin, p.dst.xmin, -1}} {
		for i := range side.src {
			inSrc, inDst := !math.IsInf(side.src[i], side.inf), !math.IsInf(side.dst[i], side.inf)
			switch {
			case inSrc && inDst:
				out = append(out, v[from])
			case inDst:
				out = append(out, seedRow)
			}
			if inSrc {
				from++
			}
			moved = moved || inSrc != inDst
		}
	}
	if !moved {
		return v
	}
	return out
}
