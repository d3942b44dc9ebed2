package opf

import (
	"errors"
	"testing"

	"repro/internal/grid"
	"repro/internal/mips"
)

// TestStallVerdictKeepsEveryConvergedSolve pins the stalled-feasibility
// rule (mips.ErrStalled) on the cold nominal-load N-1 fleets of case9 …
// case118: every class that converged before the rule existed converges
// in exactly the iterations it takes without it (count and sum below,
// measured on the LDLᵀ kernel with inertia correction and the rule
// disabled), every class that
// fails ends on one of the three failure verdicts, and the failing
// classes take at most three quarters of the iterations they took before
// the rule and the LDLᵀ's collapsed-column verdict, which ran most of
// them to the 150-iteration limit (measured: 22 % on case30, 34 % on
// case57, 33 % on case118). Under -short and the race detector case118
// solves every fourth class.
func TestStallVerdictKeepsEveryConvergedSolve(t *testing.T) {
	type pin struct {
		converged, convergedIters int // converged classes, Σ their iterations
		failedIters               int // Σ iterations of the failing classes before the rule
	}
	fleets := []struct {
		c    *grid.Case
		want pin
	}{
		{grid.Case9(), pin{6, 69, 0}},
		{grid.Case14(), pin{19, 251, 0}},
		{grid.Case30(), pin{34, 390, 600}},
		{grid.Case57(), pin{38, 740, 4942}},
		{grid.Case118(), pin{158, 2854, 2786}},
	}
	sampled118 := pin{42, 750, 450} // every fourth case118 class
	for _, f := range fleets {
		c, want, stride := f.c, f.want, 1
		if c.Name == "case118" && (testing.Short() || raceEnabled) {
			want, stride = sampled118, 4
		}
		base := Prepare(c)
		var got pin
		k := 0
		for b, br := range c.Branches {
			if !br.Status || !grid.ConnectedWithout(c, []int{b}) {
				continue
			}
			if k++; (k-1)%stride != 0 {
				continue
			}
			cls, err := base.RebindOutage(b)
			if err != nil {
				t.Fatal(err)
			}
			r, err := cls.Solve(nil, Options{})
			switch {
			case err == nil && r.Converged:
				got.converged++
				got.convergedIters += r.Iterations
			case errors.Is(err, mips.ErrStalled), errors.Is(err, mips.ErrMaxIter), errors.Is(err, mips.ErrNumeric):
				got.failedIters += r.Iterations
			default:
				t.Fatalf("%s branch %d: not converged, and err = %v is no failure verdict", c.Name, b, err)
			}
		}
		if got.converged != want.converged || got.convergedIters != want.convergedIters {
			t.Errorf("%s: %d classes converged in %d iterations, want %d in %d",
				c.Name, got.converged, got.convergedIters, want.converged, want.convergedIters)
		}
		if 4*got.failedIters > 3*want.failedIters {
			t.Errorf("%s: failing classes took %d iterations, want at most 3/4 of %d", c.Name, got.failedIters, want.failedIters)
		}
	}
}
