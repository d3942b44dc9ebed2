package mips_test

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/mips"
	"repro/internal/opf"
)

// TestPooledArenaSolveBitIdentical is the full-solve bitwise pin of the
// Arena's reuse promise ("size or pattern changes are absorbed
// transparently"): a solve through mips.Solve, whose pooled arena the
// solve of a different grid has just left full of the wrong sizes,
// compiled assembly programs and bound factors, must walk the exact
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
			if got.Iterations != ref.Iterations {
				t.Errorf("pooled arena took %d iterations, fresh arena %d", got.Iterations, ref.Iterations)
			}
			if math.Float64bits(got.F) != math.Float64bits(ref.F) {
				t.Errorf("objective %v, fresh arena %v", got.F, ref.F)
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
					t.Fatalf("%s has %d entries, fresh arena %d", v.name, len(v.got), len(v.ref))
				}
				for k := range v.got {
					if math.Float64bits(v.got[k]) != math.Float64bits(v.ref[k]) {
						t.Errorf("%s[%d] = %v, fresh arena %v", v.name, k, v.got[k], v.ref[k])
						break
					}
				}
			}
		})
	}
}
