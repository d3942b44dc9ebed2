package mips_test

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/mips"
	"repro/internal/opf"
	"repro/internal/sparse"
)

// requireSameIterates fails unless two solves took the same number of
// iterations and ended on the same objective, X, λ, µ and Z bit for bit.
func requireSameIterates(t *testing.T, gotName string, got *mips.Result, refName string, ref *mips.Result) {
	t.Helper()
	if got.Iterations != ref.Iterations || got.InertiaCorrections != ref.InertiaCorrections {
		t.Errorf("%s took %d iterations and %d inertia corrections, %s %d and %d", gotName,
			got.Iterations, got.InertiaCorrections, refName, ref.Iterations, ref.InertiaCorrections)
	}
	if math.Float64bits(got.F) != math.Float64bits(ref.F) {
		t.Errorf("%s objective %v, %s %v", gotName, got.F, refName, ref.F)
	}
	for _, v := range []struct {
		name     string
		got, ref []float64
	}{
		{"X", got.X, ref.X},
		{"Lam", got.Lam, ref.Lam},
		{"Mu", got.Mu, ref.Mu},
		{"Z", got.Z, ref.Z},
	} {
		if len(v.got) != len(v.ref) {
			t.Fatalf("%s: %s has %d entries, %s %d", gotName, v.name, len(v.got), refName, len(v.ref))
		}
		for k := range v.got {
			if math.Float64bits(v.got[k]) != math.Float64bits(v.ref[k]) {
				t.Errorf("%s: %s[%d] = %v, %s %v", gotName, v.name, k, v.got[k], refName, v.ref[k])
				break
			}
		}
	}
}

// TestPooledArenaSolveBitIdentical is the full-solve bitwise pin of the
// Arena's reuse promise ("size or pattern changes are absorbed
// transparently"): a solve through mips.Solve, whose pooled arena the
// solve of a different grid has just left full of the wrong sizes,
// slot maps and bound factors, must walk the exact
// iterate sequence of a Stepper on a fresh Arena — same iteration count,
// same objective, X/λ/µ/Z equal bit for bit. case30 follows case118
// (everything shrinks) and case118 follows case30 (everything regrows).
func TestPooledArenaSolveBitIdentical(t *testing.T) {
	cases := []*grid.Case{grid.Case30(), grid.Case118()}
	for i, c := range cases {
		other := cases[1-i]
		t.Run(c.Name, func(t *testing.T) {
			o := opf.Prepare(c)
			s := mips.NewStepper(o.Problem(), o.DefaultStart(), nil, mips.Options{})
			for done := false; !done; {
				var err error
				if done, err = s.Step(); err != nil {
					t.Fatalf("fresh-arena solve failed: %v", err)
				}
			}
			ref := s.Result()
			if !ref.Converged {
				t.Fatal("fresh-arena solve did not converge")
			}

			oo := opf.Prepare(other)
			if _, err := mips.Solve(oo.Problem(), oo.DefaultStart(), nil, mips.Options{}); err != nil {
				t.Fatalf("dirtying solve of %s failed: %v", other.Name, err)
			}
			got, err := mips.Solve(o.Problem(), o.DefaultStart(), nil, mips.Options{})
			if err != nil {
				t.Fatalf("pooled-arena solve failed: %v", err)
			}
			requireSameIterates(t, "pooled arena", got, "fresh arena", ref)
		})
	}
}

// TestPrivateCacheMatchesSharedCache is the repository benchmark's
// replay contract (bench/layers.go, trace.replay_mismatch_total) inside
// tier-1: a Stepper configured the way the benchmark replays a served
// solve — no KKT cache, only the instance's ordering, so a private cache
// analyzes from scratch — must walk the exact iterate sequence of
// (*opf.OPF).Solve on the grid's shared cache, both on the solve that
// populates that cache and on the next one, which only refactors. Cold
// and from a warm start, on case30 (fixed RCM) and case118 (probed
// auto).
func TestPrivateCacheMatchesSharedCache(t *testing.T) {
	for _, c := range []*grid.Case{grid.Case30(), grid.Case118()} {
		// A neighbouring load level's optimum is the warm start.
		near, err := opf.Prepare(c).Solve(nil, opf.Options{})
		if err != nil {
			t.Fatalf("%s: warm-start source solve failed: %v", c.Name, err)
		}
		factors := make([]float64, c.NB())
		for i := range factors {
			factors[i] = 1.03 - 0.01*float64(i%4)
		}
		for name, start := range map[string]*opf.Start{
			"cold": nil,
			"warm": {X: near.X, Lam: near.Lam, Mu: near.Mu, Z: near.Z},
		} {
			t.Run(c.Name+"/"+name, func(t *testing.T) {
				base := opf.Prepare(c)
				inst := base.Perturb(factors)
				var ws *mips.WarmStart
				if start != nil {
					ws = &mips.WarmStart{X: start.X, Lam: start.Lam, Mu: start.Mu, Z: start.Z}
				}
				s := mips.NewStepper(inst.Problem(), inst.DefaultStart(), ws, mips.Options{Ordering: inst.Ordering()})
				for done := false; !done; {
					var err error
					if done, err = s.Step(); err != nil {
						t.Fatalf("private-cache solve failed: %v", err)
					}
				}
				ref := s.Result()

				// One factorization per iteration and one per inertia
				// correction; the first makes the analysis.
				factors := uint64(ref.Iterations + ref.InertiaCorrections)
				want := sparse.CacheStats{Analyses: 1, Orderings: 1, Refactors: factors - 1}
				for _, pass := range []string{"analyzing", "refactor-only"} {
					r, err := inst.Solve(start, opf.Options{})
					if err != nil {
						t.Fatalf("%s shared-cache solve failed: %v", pass, err)
					}
					got := &mips.Result{Iterations: r.Iterations, InertiaCorrections: r.InertiaCorrections, F: r.Cost, X: r.X, Lam: r.Lam, Mu: r.Mu, Z: r.Z}
					requireSameIterates(t, pass+" shared-cache solve", got, "private-cache stepper", ref)
					if st := base.KKTStats(); st != want {
						t.Errorf("after the %s solve the grid's KKT stats are %+v, want %+v", pass, st, want)
					}
					want.Refactors += factors
				}
			})
		}
	}
}
