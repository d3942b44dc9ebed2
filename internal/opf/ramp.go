package opf

import (
	"fmt"
	"math"
	"time"

	"repro/internal/la"
)

// RebindRamp derives a prepared OPF whose real-dispatch bounds are
// tightened by per-generator ramp limits anchored at a previous-step
// dispatch: generator g may move at most up[g] above and down[g] below
// prevPg[g] (all in pu of BaseMVA) within the static [Pmin, Pmax] box.
// This is the multi-period coupling of internal/horizon — step t's
// instance is the step-t load perturbation with RebindRamp(step t−1's
// dispatch) applied.
//
// Ramp limits are pure bound tightening, so the derived instance shares
// everything structural with o: admittance matrices, rated-branch
// subset, layout offsets, and o's KKT cache itself. A ramp limit that
// turns an infinite bound finite grows NIq (the new bound becomes an
// inequality row in MIPS's FullInequality order; warm starts in o's
// layout then need ProjectionTo), but MIPS factors the reduced KKT of
// dimension NX + NEq, where a bound row on variable i contributes only
// to the (i, i) diagonal entry that is always stamped — so the pattern,
// and with it o's analysis, is shared by construction whichever bounds
// are finite. Finiteness is monotone under tightening — min(finite, ·)
// stays finite — so NIq never shrinks and NIq unchanged ⇔ identical
// bound pattern.
//
// The anchor is clamped into the static box first, so the tightened
// window is never empty even for an anchor from a non-converged step;
// up[g] or down[g] may be +Inf (direction unconstrained) and either
// vector may be nil (that direction unconstrained for every unit).
// Negative or NaN entries are rejected. A zero limit freezes the unit
// at its anchor (equal bounds — both rows finite).
func (o *OPF) RebindRamp(prevPg, up, down la.Vector) (*OPF, error) {
	t0 := time.Now()
	lay := o.Lay
	if len(prevPg) != lay.NG {
		return nil, fmt.Errorf("opf: ramp anchor has %d entries, %s has %d in-service generators", len(prevPg), o.Case.Name, lay.NG)
	}
	if err := checkRampLimits("up", up, lay.NG); err != nil {
		return nil, err
	}
	if err := checkRampLimits("down", down, lay.NG); err != nil {
		return nil, err
	}
	xmin := o.xmin.Clone()
	xmax := o.xmax.Clone()
	for g := 0; g < lay.NG; g++ {
		lo, hi := o.xmin[lay.PgOff+g], o.xmax[lay.PgOff+g]
		anchor := prevPg[g]
		if math.IsNaN(anchor) {
			return nil, fmt.Errorf("opf: ramp anchor prevPg[%d] is NaN", g)
		}
		if anchor < lo {
			anchor = lo
		}
		if anchor > hi {
			anchor = hi
		}
		if down != nil && !math.IsInf(down[g], 1) {
			if l := anchor - down[g]; l > lo {
				xmin[lay.PgOff+g] = l
			}
		}
		if up != nil && !math.IsInf(up[g], 1) {
			if h := anchor + up[g]; h < hi {
				xmax[lay.PgOff+g] = h
			}
		}
	}
	cp := *o
	cp.xmin = xmin
	cp.xmax = xmax
	cp.Lay.NIq = 2*lay.NLRated + finite(xmax, 1) + finite(xmin, -1)
	cp.decouple() // a dropped unit's bound rows move with the bounds
	cp.prep = time.Since(t0)
	return &cp, nil
}

func checkRampLimits(name string, v la.Vector, ng int) error {
	if v == nil {
		return nil
	}
	if len(v) != ng {
		return fmt.Errorf("opf: ramp %s limits have %d entries, want %d", name, len(v), ng)
	}
	for g, r := range v {
		if math.IsNaN(r) || r < 0 || math.IsInf(r, -1) {
			return fmt.Errorf("opf: ramp %s limit [%d] = %v, want >= 0", name, g, r)
		}
	}
	return nil
}
