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
	// Pg bounds of case9 are finite already: tightening changes no
	// finiteness, so the layout is unchanged; the KKT cache is shared.
	if ro.Lay.NIq != o.Lay.NIq {
		t.Fatalf("NIq changed %d -> %d with no newly-finite bound", o.Lay.NIq, ro.Lay.NIq)
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

func TestRebindRampGrowsLayoutForInfiniteBound(t *testing.T) {
	c := grid.Case9()
	c.Gens[1].Pmax = math.Inf(1) // unbounded unit: its upper bound leaves NIq
	o := Prepare(c)
	r := rampSolved(t, o)
	prev := prevDispatch(o, r)
	up := make(la.Vector, o.Lay.NG)
	for g := range up {
		up[g] = 0.5
	}
	ro, err := o.RebindRamp(prev, up, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Lay.NIq != o.Lay.NIq+1 {
		t.Fatalf("NIq = %d, want %d (one newly-finite upper bound)", ro.Lay.NIq, o.Lay.NIq+1)
	}
	// The new bound row lands on the always-stamped diagonal of the
	// reduced KKT, so the pattern — and the base's analysis — is shared.
	if ro.kkt != o.kkt {
		t.Fatal("RebindRamp must share the KKT cache even when NIq grows")
	}
	// A warm start in the base layout projects to exactly the grown NIq
	// and solves without the length panic.
	st := o.ProjectionTo(ro).Apply(&Start{X: r.X, Lam: r.Lam, Mu: r.Mu, Z: r.Z})
	if len(st.Mu) != ro.Lay.NIq || len(st.Z) != ro.Lay.NIq {
		t.Fatalf("projected µ/z lengths %d/%d, want %d", len(st.Mu), len(st.Z), ro.Lay.NIq)
	}
	before := o.KKTStats()
	rr, err := ro.Solve(st, Options{})
	if err != nil || !rr.Converged {
		t.Fatalf("projected warm solve failed: %v", err)
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

func TestProjectionStepSharedPattern(t *testing.T) {
	o := Prepare(grid.Case9())
	r := rampSolved(t, o)
	prev := prevDispatch(o, r)
	up := la.Vector{0.3, 0.3, 0.3}
	ro, err := o.RebindRamp(prev, up, up)
	if err != nil {
		t.Fatal(err)
	}
	st := &Start{X: r.X, Lam: r.Lam, Mu: r.Mu, Z: r.Z}
	ps := o.ProjectionTo(ro).Apply(st)
	// Identical bound pattern: µ/Z pass through untouched.
	if &ps.Mu[0] != &st.Mu[0] || &ps.Z[0] != &st.Z[0] {
		t.Fatal("pattern-preserving projection must pass µ/Z through")
	}
	rr, err := ro.Solve(ps, Options{})
	if err != nil || !rr.Converged {
		t.Fatalf("chained warm solve failed: %v", err)
	}
	if rr.Iterations >= r.Iterations {
		t.Logf("note: chained solve took %d iterations vs cold %d", rr.Iterations, r.Iterations)
	}
}

func TestProjectionShapeMismatch(t *testing.T) {
	o := Prepare(grid.Case9())
	o2 := Prepare(grid.Case14())
	r := rampSolved(t, o)
	st := &Start{X: r.X, Lam: r.Lam, Mu: r.Mu, Z: r.Z}
	if got := o.ProjectionTo(o2).Apply(st); got != nil {
		t.Fatal("projection across grids must return nil (cold)")
	}
	if got := o.ProjectionTo(o).Apply(nil); got != nil {
		t.Fatal("nil start must project to nil")
	}
	// Malformed µ/Z degrade to an X/λ-only start.
	got := o.ProjectionTo(o).Apply(&Start{X: r.X, Lam: r.Lam, Mu: r.Mu[:3], Z: r.Z[:3]})
	if got == nil || got.X == nil || got.Mu != nil || got.Z != nil {
		t.Fatalf("malformed µ/Z must drop to X/λ-only, got %+v", got)
	}
}

// FuzzRebindRamp drives random ramp windows — zero, finite and +Inf
// limits over randomized anchors — through RebindRamp and a bounded
// solve. The invariants: the derived NIq reconciles exactly with the
// count of newly-finite bounds, projection always produces µ/Z of the
// derived length (MIPS panics otherwise), and the solve either
// converges or fails gracefully (Refactor's pivot-decay fallback may
// reject degenerate windows, e.g. frozen dispatch, but must not panic)
// — and deterministically.
func FuzzRebindRamp(f *testing.F) {
	o := Prepare(grid.Case9())
	r, err := o.Solve(nil, Options{})
	if err != nil || !r.Converged {
		f.Fatalf("case9 base solve failed: %v", err)
	}
	prev := prevDispatch(o, r)
	f.Add(int64(1), uint8(0b00), false)
	f.Add(int64(2), uint8(0b01), true)  // zero up limits: frozen upward
	f.Add(int64(3), uint8(0b10), false) // +Inf up limits
	f.Add(int64(4), uint8(0b11), true)
	f.Fuzz(func(t *testing.T, seed int64, sel uint8, unboundPmax bool) {
		base := o
		anchor := prev
		if unboundPmax {
			c := grid.Case9()
			c.Gens[0].Pmax = math.Inf(1)
			base = Prepare(c)
			rb, err := base.Solve(nil, Options{})
			if err != nil || !rb.Converged {
				t.Skip("unbounded base did not converge")
			}
			anchor = prevDispatch(base, rb)
		}
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
		ro, err := base.RebindRamp(anchor, up, down)
		if err != nil {
			t.Fatalf("valid limits rejected: %v", err)
		}

		// Accounting: NIq grows by exactly the newly-finite bounds.
		bmin, bmax := base.Bounds()
		cmin, cmax := ro.Bounds()
		grown := 0
		for i := range bmin {
			if math.IsInf(bmax[i], 1) && !math.IsInf(cmax[i], 1) {
				grown++
			}
			if math.IsInf(bmin[i], -1) && !math.IsInf(cmin[i], -1) {
				grown++
			}
			if !math.IsInf(bmax[i], 1) && math.IsInf(cmax[i], 1) ||
				!math.IsInf(bmin[i], -1) && math.IsInf(cmin[i], -1) {
				t.Fatalf("bound %d lost finiteness", i)
			}
		}
		if ro.Lay.NIq != base.Lay.NIq+grown {
			t.Fatalf("NIq = %d, want %d + %d newly finite", ro.Lay.NIq, base.Lay.NIq, grown)
		}

		// The window is never empty.
		for g := 0; g < lay.NG; g++ {
			i := lay.PgOff + g
			if cmin[i] > cmax[i] {
				t.Fatalf("gen %d empty window [%v, %v]", g, cmin[i], cmax[i])
			}
		}

		// Projection always matches the derived length.
		rb := r
		if unboundPmax {
			rb, _ = base.Solve(nil, Options{})
		}
		st := base.ProjectionTo(ro).Apply(&Start{X: rb.X, Lam: rb.Lam, Mu: rb.Mu, Z: rb.Z})
		if len(st.Mu) != ro.Lay.NIq || len(st.Z) != ro.Lay.NIq {
			t.Fatalf("projected µ/z lengths %d/%d, want %d", len(st.Mu), len(st.Z), ro.Lay.NIq)
		}

		// Bounded solves must terminate gracefully (converged, iteration
		// cap, or a clean numeric error from the pivot-decay fallback) and
		// bit-identically across repeats.
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
