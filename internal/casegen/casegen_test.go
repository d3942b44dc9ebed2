package casegen

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/opf"
)

// storedMismatch is the largest power-balance mismatch, in per unit, of
// c's stored operating point: grid.PowerMismatch at the stored voltages
// and the stored dispatch's injections (grid.MakeSbus), an evaluation
// independent of the OPF that produced the point.
func storedMismatch(c *grid.Case) float64 {
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
	worst := 0.0
	for _, m := range grid.PowerMismatch(grid.MakeYbus(c), grid.Voltage(vm, va), grid.MakeSbus(c, pg, qg)) {
		worst = math.Max(worst, cmplx.Abs(m))
	}
	return worst
}

// certifiedTol bounds storedMismatch of a certified system. The OPF
// converges once its power-balance residual is below mips' FeasTol, 1e-6,
// relative to 1 + max(‖x‖∞, ‖z‖∞) — a scale of a few per unit here. The
// paper and beyond-paper specs measure at most 8e-10 (case39), 3,000
// random TestGenerateProperty specs at most 1.9e-6.
const certifiedTol = 1e-5

// inBand reports whether every stored voltage magnitude lies within its
// bus's [Vmin, Vmax].
func inBand(c *grid.Case) bool {
	for _, b := range c.Buses {
		if b.Vm < b.Vmin || b.Vm > b.Vmax {
			return false
		}
	}
	return true
}

func TestPaperSpecsMatchTableII(t *testing.T) {
	specs := PaperSpecs()
	for name, want := range map[string][3]int{
		"case30":  {30, 6, 41},
		"case39":  {39, 10, 46},
		"case57":  {57, 7, 80},
		"case118": {118, 54, 185},
		"case300": {300, 69, 411},
	} {
		s, ok := specs[name]
		if !ok {
			t.Fatalf("missing spec %s", name)
		}
		if s.Buses != want[0] || s.Gens != want[1] || s.Branches != want[2] {
			t.Errorf("%s = %d/%d/%d want %v", name, s.Buses, s.Gens, s.Branches, want)
		}
	}
}

func TestGenerateCountsAndDeterminism(t *testing.T) {
	spec := PaperSpecs()["case30"]
	c1, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if c1.NB() != 30 || c1.NG() != 6 || c1.NL() != 41 {
		t.Fatalf("counts %d/%d/%d", c1.NB(), c1.NG(), c1.NL())
	}
	c2, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1.Branches {
		if c1.Branches[i] != c2.Branches[i] {
			t.Fatal("generation not deterministic")
		}
	}
	for i := range c1.Buses {
		if c1.Buses[i] != c2.Buses[i] {
			t.Fatal("bus data not deterministic")
		}
	}
}

// The stored operating point of every certified paper system — its
// certifying OPF optimum — solves the power-flow equations and keeps its
// voltages in band.
func TestGeneratedSystemsSolvePowerFlow(t *testing.T) {
	for name, spec := range PaperSpecs() {
		c, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m := storedMismatch(c); m > certifiedTol || !inBand(c) {
			t.Fatalf("%s: stored point mismatch %.3g pu (tolerance %g), voltages in band %v", name, m, certifiedTol, inBand(c))
		}
	}
}

func TestGeneratedSystemsSolveOPF(t *testing.T) {
	names := []string{"case30", "case57"}
	if !testing.Short() {
		names = append(names, "case39", "case118", "case300")
	}
	specs := PaperSpecs()
	for _, name := range names {
		c, err := Generate(specs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o := opf.Prepare(c)
		r, err := o.Solve(nil, opf.Options{})
		if err != nil {
			t.Fatalf("%s: OPF failed: %v", name, err)
		}
		if !r.Converged || r.Cost <= 0 {
			t.Fatalf("%s: OPF not converged (cost %v)", name, r.Cost)
		}
	}
}

func TestPaperDispatch(t *testing.T) {
	for _, name := range SensitivitySystemNames() {
		c, err := Paper(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name != name {
			t.Errorf("Paper(%s).Name = %s", name, c.Name)
		}
	}
	if _, err := Paper("case9999"); err == nil {
		t.Error("unknown system accepted")
	}
}

// generate synthesizes the paper profile name, failing t on an error.
func generate(t *testing.T, name string) *grid.Case {
	t.Helper()
	c, err := Generate(PaperSpecs()[name])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRatedBranchesAssigned(t *testing.T) {
	c := generate(t, "case30")
	rated := 0
	for _, b := range c.Branches {
		if b.RateA > 0 {
			rated++
			if b.RateA < 15 {
				t.Errorf("rating %v below floor", b.RateA)
			}
		}
	}
	if rated != 41 {
		t.Errorf("rated = %d want 41", rated)
	}
	// Unrated profile.
	c57 := generate(t, "case57")
	for _, b := range c57.Branches {
		if b.RateA != 0 {
			t.Fatalf("case57 profile should have no ratings, got %v", b.RateA)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Generate(Spec{Buses: 1, Gens: 1, Branches: 0}); err == nil {
		t.Error("1-bus accepted")
	}
	if _, err := Generate(Spec{Buses: 5, Gens: 0, Branches: 4}); err == nil {
		t.Error("0 gens accepted")
	}
	if _, err := Generate(Spec{Buses: 5, Gens: 1, Branches: 2}); err == nil {
		t.Error("disconnected branch count accepted")
	}
}

// Property: random small specs produce connected, normalized cases
// whose stored point solves the power flow within the voltage band.
func TestGenerateProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nb := 6 + r.Intn(30)
		ng := 1 + r.Intn(nb/3+1)
		nl := nb - 1 + r.Intn(nb)
		c, err := Generate(Spec{
			Name: "prop", Buses: nb, Gens: ng, Branches: nl,
			RatedBranches: nl / 2, Seed: seed,
		})
		if err != nil {
			return false // none of 3,000 random specs failed certification
		}
		if c.NB() != nb || c.NG() != ng || c.NL() != nl {
			return false
		}
		if storedMismatch(c) > certifiedTol || !inBand(c) {
			return false
		}
		// Connectivity: every bus reachable from bus 0.
		adj := make([][]int, nb)
		for _, br := range c.Branches {
			f0 := c.BusIndex(br.From)
			t0 := c.BusIndex(br.To)
			adj[f0] = append(adj[f0], t0)
			adj[t0] = append(adj[t0], f0)
		}
		seen := make([]bool, nb)
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					count++
					stack = append(stack, w)
				}
			}
		}
		return count == nb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The stored operating point is the certifying OPF's optimum: a cold
// solve of the certified system with its ratings cleared and its angles
// back at build's 0 (the cold start takes the reference bus's stored
// angle) — the problem certify solved — lands on the stored Vm, Pg, Qg
// and Vg bit for bit, and on Va up to its degree round trip.
func TestCertifiedOperatingPointStored(t *testing.T) {
	c := generate(t, "case30")
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

// TestThousandBusCertification extends the certification suite to the
// 1000+ bus synthesis the beyond-paper scaling systems come from: the
// generator must produce connected systems with feasible ratings,
// deterministically regenerable from the seed, at sizes an order of
// magnitude past the paper's evaluation.
func TestThousandBusCertification(t *testing.T) {
	if testing.Short() {
		t.Skip("1000+ bus synthesis runs full OPF certifications")
	}
	specs := []Spec{
		{Name: "cert1000", Buses: 1000, Gens: 180, Branches: 1500, RatedBranches: 400, Seed: 1000},
		BeyondPaperSpecs()["case1354"],
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			c1, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if c1.NB() != spec.Buses || c1.NG() != spec.Gens || c1.NL() != spec.Branches {
				t.Fatalf("counts %d/%d/%d want %d/%d/%d",
					c1.NB(), c1.NG(), c1.NL(), spec.Buses, spec.Gens, spec.Branches)
			}
			if !grid.ConnectedWithout(c1, nil) {
				t.Fatal("synthesized system is not connected")
			}
			// Deterministic regeneration: a second run from the same spec
			// must reproduce every table entry exactly.
			c2, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := range c1.Buses {
				if c1.Buses[i] != c2.Buses[i] {
					t.Fatalf("bus %d not deterministic", i)
				}
			}
			for i := range c1.Branches {
				if c1.Branches[i] != c2.Branches[i] {
					t.Fatalf("branch %d not deterministic", i)
				}
			}
			for i := range c1.Gens {
				if c1.Gens[i] != c2.Gens[i] {
					t.Fatalf("gen %d not deterministic", i)
				}
			}
			// The certified operating point solves the power flow in band
			// and respects every assigned rating (casegen assigns
			// RatedHeadroom× the certified flow, floored), and the ratings
			// respect the floor.
			if m := storedMismatch(c1); m > certifiedTol || !inBand(c1) {
				t.Fatalf("stored point mismatch %.3g pu (tolerance %g), voltages in band %v", m, certifiedTol, inBand(c1))
			}
			vm := make([]float64, c1.NB())
			va := make([]float64, c1.NB())
			for i, b := range c1.Buses {
				vm[i], va[i] = b.Vm, grid.Deg2Rad(b.Va)
			}
			sf, st := grid.BranchFlows(grid.MakeYbus(c1), grid.Voltage(vm, va))
			li := 0
			for l, br := range c1.Branches {
				if !br.Status {
					continue
				}
				if br.RateA > 0 {
					if br.RateA < grid.RatedFloorMVA {
						t.Errorf("branch %d rating %v below floor", l, br.RateA)
					}
					flow := maxAbsFlow(sf[li], st[li]) * c1.BaseMVA
					if flow > br.RateA*1.0001 {
						t.Errorf("branch %d: certified flow %.1f MVA exceeds rating %.1f",
							l, flow, br.RateA)
					}
				}
				li++
			}
		})
	}
}

func maxAbsFlow(a, b complex128) float64 {
	return math.Max(cmplx.Abs(a), cmplx.Abs(b))
}
