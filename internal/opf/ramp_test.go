package opf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
)

// rampSolved returns a converged base solution of c to anchor ramps at.
func rampSolved(t testing.TB, o *OPF) *Result {
	t.Helper()
	r, err := o.Solve(nil, Options{})
	if err != nil || !r.Converged {
		t.Fatalf("%s base solve failed: %v", o.Case.Name, err)
	}
	return r
}

func prevDispatch(o *OPF, r *Result) la.Vector {
	lay := o.Lay
	return r.X[lay.PgOff : lay.PgOff+lay.NG]
}

func TestRebindRampTightensBounds(t *testing.T) {
	o := Prepare(grid.Case9())
	r := rampSolved(t, o)
	prev := prevDispatch(o, r)
	lay := o.Lay
	up := make(la.Vector, lay.NG)
	down := make(la.Vector, lay.NG)
	for g := range up {
		up[g] = 0.05
		down[g] = 0.02
	}
	ro, err := o.RebindRamp(prev, up, down)
	if err != nil {
		t.Fatal(err)
	}
	bmin, bmax := o.Bounds()
	cmin, cmax := ro.Bounds()
	for g := 0; g < lay.NG; g++ {
		i := lay.PgOff + g
		wantHi := math.Min(bmax[i], prev[g]+up[g])
		wantLo := math.Max(bmin[i], prev[g]-down[g])
		if cmax[i] != wantHi || cmin[i] != wantLo {
			t.Fatalf("gen %d window [%v, %v], want [%v, %v]", g, cmin[i], cmax[i], wantLo, wantHi)
		}
	}
	// Tightening keeps the layout; the KKT cache is shared.
	if ro.Lay != o.Lay {
		t.Fatalf("layout changed %+v -> %+v", o.Lay, ro.Lay)
	}
	if ro.kkt != o.kkt {
		t.Fatal("RebindRamp must share the KKT cache")
	}
	// Non-Pg bounds are untouched.
	for i := 0; i < lay.PgOff; i++ {
		if cmin[i] != bmin[i] || cmax[i] != bmax[i] {
			t.Fatalf("bound %d changed: [%v,%v] vs [%v,%v]", i, cmin[i], cmax[i], bmin[i], bmax[i])
		}
	}
	rr, err := ro.Solve(nil, Options{})
	if err != nil || !rr.Converged {
		t.Fatalf("ramped instance did not solve: %v", err)
	}
	for g := 0; g < lay.NG; g++ {
		d := rr.X[lay.PgOff+g] - prev[g]
		if d > up[g]+1e-6 || d < -down[g]-1e-6 {
			t.Fatalf("gen %d moved %v, window [-%v, +%v]", g, d, down[g], up[g])
		}
	}
}

// A finite ramp limit on an infinite side would add an inequality row,
// so RebindRamp rejects it; +Inf limits on those sides keep the layout,
// and the ramp solve shares the base grid's KKT analysis.
func TestRebindRampRejectsFiniteLimitOnInfiniteBound(t *testing.T) {
	c := grid.Case9()
	c.Gens[1].Pmax = math.Inf(1)
	c.Gens[2].Pmin = math.Inf(-1)
	o := Prepare(c)
	r := rampSolved(t, o)
	prev := prevDispatch(o, r)
	finite := la.Vector{0.5, 0.5, 0.5}
	if _, err := o.RebindRamp(prev, finite, nil); err == nil {
		t.Error("finite up limit on a Pmax = +Inf unit accepted")
	}
	if _, err := o.RebindRamp(prev, nil, finite); err == nil {
		t.Error("finite down limit on a Pmin = -Inf unit accepted")
	}
	up := la.Vector{0.5, math.Inf(1), 0.5}
	down := la.Vector{0.5, 0.5, math.Inf(1)}
	ro, err := o.RebindRamp(prev, up, down)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Lay != o.Lay {
		t.Fatalf("layout %+v, want the base's %+v", ro.Lay, o.Lay)
	}
	if ro.kkt != o.kkt {
		t.Fatal("RebindRamp must share the KKT cache")
	}
	before := o.KKTStats()
	rr, err := ro.Solve(&Start{X: r.X, Lam: r.Lam, Mu: r.Mu, Z: r.Z}, Options{})
	if err != nil || !rr.Converged {
		t.Fatalf("warm ramp solve failed: %v", err)
	}
	// The ramp solve only refactors, and is counted on the base grid.
	want := before
	want.Refactors += uint64(rr.Iterations)
	if got := o.KKTStats(); got != want {
		t.Fatalf("KKT stats after the ramp solve = %+v, want %+v (0 analyses, 0 orderings, %d refactors added)", got, want, rr.Iterations)
	}
}

func TestRebindRampValidation(t *testing.T) {
	o := Prepare(grid.Case9())
	r := rampSolved(t, o)
	prev := prevDispatch(o, r)
	ng := o.Lay.NG
	bad := func(name string, prev, up, down la.Vector) {
		t.Helper()
		if _, err := o.RebindRamp(prev, up, down); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
	bad("short anchor", prev[:ng-1], nil, nil)
	bad("short up", prev, la.Vector{0.1}, nil)
	bad("negative up", prev, la.Vector{0.1, -0.1, 0.1}, nil)
	bad("NaN down", prev, nil, la.Vector{0.1, math.NaN(), 0.1})
	bad("-Inf up", prev, la.Vector{0.1, math.Inf(-1), 0.1}, nil)
	nan := prev.Clone()
	nan[0] = math.NaN()
	bad("NaN anchor", nan, la.Vector{0.1, 0.1, 0.1}, nil)
	if _, err := o.RebindRamp(prev, nil, nil); err != nil {
		t.Fatalf("nil limits must be accepted: %v", err)
	}
}

// FuzzRebindRamp drives random ramp windows — zero, finite and +Inf
// limits over randomized anchors, on a base whose first unit may have an
// infinite Pmax — through RebindRamp and a bounded solve. The
// invariants: RebindRamp errors exactly when a finite limit meets an
// infinite side, the derived layout is the base's, the window is never
// empty, and the solve from the base solution either converges or fails
// gracefully (a degenerate window, e.g. frozen dispatch, may end on a
// numeric error but must not panic) — and deterministically.
func FuzzRebindRamp(f *testing.F) {
	o := Prepare(grid.Case9())
	r, err := o.Solve(nil, Options{})
	if err != nil || !r.Converged {
		f.Fatalf("case9 base solve failed: %v", err)
	}
	f.Add(int64(1), uint8(0b00), false)
	f.Add(int64(2), uint8(0b01), true)  // zero up limits: frozen upward
	f.Add(int64(3), uint8(0b10), false) // +Inf up limits
	f.Add(int64(4), uint8(0b11), true)
	f.Fuzz(func(t *testing.T, seed int64, sel uint8, unboundPmax bool) {
		base, rb := o, r
		if unboundPmax {
			c := grid.Case9()
			c.Gens[0].Pmax = math.Inf(1)
			base = Prepare(c)
			var err error
			if rb, err = base.Solve(nil, Options{}); err != nil || !rb.Converged {
				t.Skip("unbounded base did not converge")
			}
		}
		anchor := prevDispatch(base, rb)
		rng := rand.New(rand.NewSource(seed))
		lay := base.Lay
		limits := func(kind uint8) la.Vector {
			switch kind {
			case 0: // random finite, zero included
				v := make(la.Vector, lay.NG)
				for g := range v {
					v[g] = math.Floor(rng.Float64()*4) / 10 // 0, .1, .2, .3
				}
				return v
			case 1:
				return make(la.Vector, lay.NG) // all zero: frozen
			case 2:
				v := make(la.Vector, lay.NG)
				for g := range v {
					v[g] = math.Inf(1)
				}
				return v
			}
			return nil // direction unconstrained
		}
		up := limits(sel & 0b11)
		down := limits((sel >> 2) & 0b11)
		bmin, bmax := base.Bounds()
		meets := false // a finite limit on an infinite side
		for g := 0; g < lay.NG; g++ {
			i := lay.PgOff + g
			meets = meets || up != nil && !math.IsInf(up[g], 1) && math.IsInf(bmax[i], 1) ||
				down != nil && !math.IsInf(down[g], 1) && math.IsInf(bmin[i], -1)
		}
		ro, err := base.RebindRamp(anchor, up, down)
		if (err != nil) != meets {
			t.Fatalf("RebindRamp error %v, want one: %v", err, meets)
		}
		if err != nil {
			return
		}
		if ro.Lay != base.Lay {
			t.Fatalf("layout %+v, want the base's %+v", ro.Lay, base.Lay)
		}

		// The window is never empty.
		cmin, cmax := ro.Bounds()
		for g := 0; g < lay.NG; g++ {
			i := lay.PgOff + g
			if cmin[i] > cmax[i] {
				t.Fatalf("gen %d empty window [%v, %v]", g, cmin[i], cmax[i])
			}
		}

		// Bounded solves must terminate gracefully (converged, iteration
		// cap, or a clean numeric error) and bit-identically across
		// repeats.
		st := &Start{X: rb.X, Lam: rb.Lam, Mu: rb.Mu, Z: rb.Z}
		opt := Options{MaxIter: 8}
		r1, err1 := ro.Solve(st, opt)
		r2, err2 := ro.Solve(st, opt)
		if (err1 == nil) != (err2 == nil) || r1.Iterations != r2.Iterations ||
			r1.Converged != r2.Converged || r1.Cost != r2.Cost {
			t.Fatalf("ramped solve not deterministic: (%v,%v,%d,%v) vs (%v,%v,%d,%v)",
				r1.Converged, r1.Cost, r1.Iterations, err1,
				r2.Converged, r2.Cost, r2.Iterations, err2)
		}
	})
}
