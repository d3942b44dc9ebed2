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
// Ramp limits are pure bound tightening of bounds that are already
// finite, so the derived instance shares everything structural with o:
// admittance matrices, rated-branch subset, layout, and o's KKT cache
// itself. A start in o's layout is a start in the derived one. A finite
// up (down) limit for a unit whose Pmax (Pmin) is infinite would add an
// inequality row, and is rejected; RampFromRange in internal/horizon
// gives such a unit +Inf.
//
// The anchor is clamped into the static box first, so the tightened
// window is never empty even for an anchor from a non-converged step;
// up[g] or down[g] may be +Inf (direction unconstrained) and either
// vector may be nil (that direction unconstrained for every unit).
// Negative or NaN entries are rejected. A zero limit freezes the unit
// at its anchor (equal bounds).
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
			if math.IsInf(lo, -1) {
				return nil, fmt.Errorf("opf: ramp down limit [%d] = %v for a unit with Pmin = -Inf would add a bound row", g, down[g])
			}
			if l := anchor - down[g]; l > lo {
				xmin[lay.PgOff+g] = l
			}
		}
		if up != nil && !math.IsInf(up[g], 1) {
			if math.IsInf(hi, 1) {
				return nil, fmt.Errorf("opf: ramp up limit [%d] = %v for a unit with Pmax = +Inf would add a bound row", g, up[g])
			}
			if h := anchor + up[g]; h < hi {
				xmax[lay.PgOff+g] = h
			}
		}
	}
	cp := *o
	cp.xmin = xmin
	cp.xmax = xmax
	cp.decouple() // a dropped unit's bound-row slacks follow the tightened bounds
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
