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
	"reflect"
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
	// not checked). case39, case300 and case1354 store the certifying
	// OPF optimum of their synthesis and measure 8.0e-10, 6.1e-13 and
	// 1.9e-10; case57 and case118 store their case file's printed,
	// rounded solution and measure 3.78 and 1.30 (the slack's stored Pg
	// and the rounding of angles across stiff branches), so their bounds
	// only pin the data.
	misTol       float64
	derivedRates bool // ratings come from RateBranches (base-feasible)
}{
	{"case5", grid.Case5, 5, 5, 6, 6, 990, 1010, 0, false},
	{"case9", grid.Case9, 9, 3, 9, 9, 310, 320, 0, false},
	{"case14", grid.Case14, 14, 5, 20, 0, 255, 265, 0, false},
	{"case30", grid.Case30, 30, 6, 41, 41, 180, 200, 0, false},
	{"case39", grid.Case39, 39, 10, 46, 46, 645, 660, 1e-9, true},
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

			if m := storedMismatch(c); tc.misTol > 0 && m > tc.misTol {
				t.Errorf("stored operating point mismatch %.3g pu exceeds %g — stale anchor?", m, tc.misTol)
			}

			// Derived ratings must leave the stored point feasible (the
			// RateBranches headroom guarantee). Source-file ratings carry
			// no such guarantee — e.g. case5's base dispatch overloads
			// line 4-5 until the OPF redispatches — so they are skipped.
			if !tc.derivedRates {
				return
			}
			sf, st := grid.BranchFlows(y, storedVoltage(c))
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

// storedVoltage is c's stored bus voltage phasors.
func storedVoltage(c *grid.Case) []complex128 {
	vm := make([]float64, c.NB())
	va := make([]float64, c.NB())
	for i, b := range c.Buses {
		vm[i], va[i] = b.Vm, grid.Deg2Rad(b.Va)
	}
	return grid.Voltage(vm, va)
}

// storedMismatch is the largest power-balance mismatch, in per unit, of
// c's stored operating point: grid.PowerMismatch at the stored voltages
// and the stored dispatch's injections (grid.MakeSbus), an evaluation
// independent of the OPF that produced the point.
func storedMismatch(c *grid.Case) float64 {
	var pg, qg []float64
	for _, g := range c.ActiveGens() {
		pg = append(pg, g.Pg/c.BaseMVA)
		qg = append(qg, g.Qg/c.BaseMVA)
	}
	worst := 0.0
	for _, m := range grid.PowerMismatch(grid.MakeYbus(c), storedVoltage(c), grid.MakeSbus(c, pg, qg)) {
		worst = math.Max(worst, cmplx.Abs(m))
	}
	return worst
}

// certifiedTol bounds storedMismatch of a frozen synthesis. Its OPF
// converged once the power-balance residual was below mips' FeasTol,
// 1e-6, relative to 1 + max(‖x‖∞, ‖z‖∞) — a scale of a few per unit.
const certifiedTol = 1e-5

// TestServedSystemsSolvePowerFlow: the stored operating point of every
// frozen synthesis — its certifying OPF optimum — solves the power-flow
// equations, checked without the OPF, and keeps every voltage magnitude
// within its bus's band.
func TestServedSystemsSolvePowerFlow(t *testing.T) {
	for _, build := range []func() *grid.Case{grid.Case39, grid.Case300, grid.Case1354} {
		c := build()
		t.Run(c.Name, func(t *testing.T) {
			if m := storedMismatch(c); m > certifiedTol {
				t.Errorf("stored point mismatch %.3g pu exceeds %g", m, certifiedTol)
			}
			for _, b := range c.Buses {
				if b.Vm < b.Vmin || b.Vm > b.Vmax {
					t.Errorf("bus %d: stored Vm %v outside [%v, %v]", b.ID, b.Vm, b.Vmin, b.Vmax)
				}
			}
		})
	}
}

// TestFrozenSynthesesConnected: each frozen synthesis keeps its element
// counts and its network is one connected island with every branch in
// service, case1354 — an order of magnitude past the paper — included.
func TestFrozenSynthesesConnected(t *testing.T) {
	for _, tc := range embedded {
		if tc.name != "case39" && tc.name != "case300" && tc.name != "case1354" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			if c.NB() != tc.nb || c.NG() != tc.ng || c.NL() != tc.nl {
				t.Fatalf("counts %d/%d/%d want %d/%d/%d",
					c.NB(), c.NG(), c.NL(), tc.nb, tc.ng, tc.nl)
			}
			if !grid.ConnectedWithout(c, nil) {
				t.Fatal("network is not connected")
			}
		})
	}
}

// TestByNameRepeatsItsTable: every served system is fixed data, so two
// loads of the same name return identical tables.
func TestByNameRepeatsItsTable(t *testing.T) {
	for _, name := range grid.Names() {
		c1, err := grid.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c2, _ := grid.ByName(name)
		if !reflect.DeepEqual(c1, c2) {
			t.Errorf("%s: two loads differ", name)
		}
	}
}

// TestByNameServesPaperSystems: every system of the paper's Table I is
// served under its own name, and an unknown name is an error.
func TestByNameServesPaperSystems(t *testing.T) {
	for _, name := range []string{"case5", "case9", "case14", "case30", "case39", "case57", "case118", "case300"} {
		c, err := grid.ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name != name {
			t.Errorf("ByName(%s).Name = %s", name, c.Name)
		}
	}
	if _, err := grid.ByName("case9999"); err == nil {
		t.Error("unknown system accepted")
	}
}

// TestPaperSystemsMatchTableII: the systems served under the paper's
// Table II names carry its bus, generator and branch counts. The one
// exception is case118, whose case file has 186 branches against the
// table's 185.
func TestPaperSystemsMatchTableII(t *testing.T) {
	for name, want := range map[string][3]int{
		"case30":  {30, 6, 41},
		"case39":  {39, 10, 46},
		"case57":  {57, 7, 80},
		"case118": {118, 54, 186}, // Table II: 185
		"case300": {300, 69, 411},
	} {
		c, err := grid.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]int{c.NB(), c.NG(), c.NL()}; got != want {
			t.Errorf("%s counts %v want %v", name, got, want)
		}
	}
}

// TestCase39StoresItsCertifiedOptimum: case39's stored operating point
// is the optimum of its unrated OPF. A cold solve of case39 with its
// ratings cleared and its angles at 0 (the cold start takes the
// reference bus's stored angle) — the problem its synthesis certified —
// lands on the stored Vm, Pg, Qg and Vg bit for bit, and on Va up to
// its degree round trip.
func TestCase39StoresItsCertifiedOptimum(t *testing.T) {
	c := grid.Case39()
	unrated := c.Clone()
	for l := range unrated.Branches {
		unrated.Branches[l].RateA = 0
	}
	for i := range unrated.Buses {
		unrated.Buses[i].Va = 0
	}
	r, err := opf.Prepare(unrated).Solve(nil, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range c.Buses {
		if b.Vm != r.Vm[i] || math.Abs(grid.Deg2Rad(b.Va)-r.Va[i]) > 1e-15 {
			t.Fatalf("bus %d: stored %v∠%v°, optimum %v∠%v rad", i, b.Vm, b.Va, r.Vm[i], r.Va[i])
		}
	}
	gbus := grid.GenBusIdx(c)
	for g, gen := range c.ActiveGens() {
		if gen.Pg != r.Pg[g] || gen.Qg != r.Qg[g] || gen.Vg != r.Vm[gbus[g]] {
			t.Fatalf("unit %d: stored Pg %v Qg %v Vg %v, optimum %v %v %v", g, gen.Pg, gen.Qg, gen.Vg, r.Pg[g], r.Qg[g], r.Vm[gbus[g]])
		}
	}
}
