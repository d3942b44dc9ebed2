package grid_test

// Embedded-fleet smoke tests: every embedded system must round-trip
// Normalize → MakeYbus, keep the power balance at its stored operating
// point and solve its OPF from a cold start, so a bad data entry in a
// large case table fails fast here rather than deep inside a benchmark
// or screening sweep. (This lives in an external test package because
// internal/opf imports grid.)

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/grid"
	"repro/internal/opf"
)

// embedded enumerates every embedded system with its expected element
// counts, load band and rated-branch count.
var embedded = []struct {
	name              string
	build             func() *grid.Case
	nb, ng, nl, rated int
	loadMin, loadMax  float64 // total Pd band, MW
	// misTol bounds the stored point's power-balance mismatch, pu (0:
	// not checked). case300 and case1354 store the certifying OPF
	// optimum of their synthesis and measure 6.1e-13 and 1.9e-10; case57
	// and case118 store their case file's printed, rounded solution and
	// measure 3.78 and 1.30 (the slack's stored Pg and the rounding of
	// angles across stiff branches), so their bounds only pin the data.
	misTol       float64
	derivedRates bool // ratings come from RateBranches (base-feasible)
}{
	{"case5", grid.Case5, 5, 5, 6, 6, 990, 1010, 0, false},
	{"case9", grid.Case9, 9, 3, 9, 9, 310, 320, 0, false},
	{"case14", grid.Case14, 14, 5, 20, 0, 255, 265, 0, false},
	{"case30", grid.Case30, 30, 6, 41, 41, 180, 200, 0, false},
	{"case57", grid.Case57, 57, 7, 80, 80, 1245, 1255, 4, true},
	{"case118", grid.Case118, 118, 54, 186, 186, 4230, 4255, 1.5, true},
	{"case300", grid.Case300, 300, 69, 411, 411, 5000, 30000, 1e-11, true},
	{"case1354", grid.Case1354, 1354, 260, 1991, 1991, 20000, 40000, 1e-9, true},
}

// TestEmbeddedSystemsRoundTrip is the table-driven data smoke test of
// the whole embedded fleet.
func TestEmbeddedSystemsRoundTrip(t *testing.T) {
	for _, tc := range embedded {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			if err := c.Normalize(); err != nil {
				t.Fatalf("Normalize: %v", err)
			}
			if c.NB() != tc.nb || c.NG() != tc.ng || c.NL() != tc.nl {
				t.Fatalf("counts %d/%d/%d want %d/%d/%d",
					c.NB(), c.NG(), c.NL(), tc.nb, tc.ng, tc.nl)
			}
			rated := 0
			for _, br := range c.Branches {
				if br.Status && br.RateA > 0 {
					rated++
				}
			}
			if rated != tc.rated {
				t.Fatalf("rated branches = %d want %d", rated, tc.rated)
			}
			p, _ := c.TotalLoad()
			if p < tc.loadMin || p > tc.loadMax {
				t.Fatalf("total load %.1f MW outside [%.0f, %.0f]", p, tc.loadMin, tc.loadMax)
			}
			y := grid.MakeYbus(c)
			if y.Ybus.NRows != tc.nb {
				t.Fatalf("Ybus is %dx%d", y.Ybus.NRows, y.Ybus.NCols)
			}

			// The stored operating point: voltages, and the injections of
			// the stored dispatch.
			vm := make([]float64, c.NB())
			va := make([]float64, c.NB())
			for i, b := range c.Buses {
				vm[i], va[i] = b.Vm, grid.Deg2Rad(b.Va)
			}
			var pg, qg []float64
			for _, g := range c.ActiveGens() {
				pg = append(pg, g.Pg/c.BaseMVA)
				qg = append(qg, g.Qg/c.BaseMVA)
			}
			v := grid.Voltage(vm, va)
			if tc.misTol > 0 {
				worst := 0.0
				for _, m := range grid.PowerMismatch(y, v, grid.MakeSbus(c, pg, qg)) {
					worst = math.Max(worst, cmplx.Abs(m))
				}
				if worst > tc.misTol {
					t.Errorf("stored operating point mismatch %.3g pu exceeds %g — stale anchor?", worst, tc.misTol)
				}
			}

			// Derived ratings must leave the stored point feasible (the
			// RateBranches headroom guarantee). Source-file ratings carry
			// no such guarantee — e.g. case5's base dispatch overloads
			// line 4-5 until the OPF redispatches — so they are skipped.
			if !tc.derivedRates {
				return
			}
			sf, st := grid.BranchFlows(y, v)
			li := 0
			for l, br := range c.Branches {
				if !br.Status {
					continue
				}
				if br.RateA > 0 {
					f := maxAbs(sf[li], st[li]) * c.BaseMVA
					if f > br.RateA*1.0001 {
						t.Errorf("branch %d (%d-%d): base flow %.1f MVA exceeds rating %.1f",
							l, br.From, br.To, f, br.RateA)
					}
				}
				li++
			}
		})
	}
}

// TestEmbeddedSystemsSolveOPF: the OPF of every embedded system converges
// from the cold start (11 to 91 iterations; case1354's ≈2 s is gated by
// -short).
func TestEmbeddedSystemsSolveOPF(t *testing.T) {
	for _, tc := range embedded {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "case1354" {
				t.Skip("1354-bus cold OPF; run without -short")
			}
			r, err := opf.Prepare(tc.build()).Solve(nil, opf.Options{})
			if err != nil || !r.Converged {
				t.Fatalf("cold OPF: %v", err)
			}
		})
	}
}

func maxAbs(a, b complex128) float64 {
	return math.Max(cmplx.Abs(a), cmplx.Abs(b))
}
