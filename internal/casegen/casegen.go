// Package casegen resolves the paper's evaluation systems by name
// (Paper) and synthesizes IEEE-like AC power systems of arbitrary size
// with a certified-feasible operating point (Generate).
//
// Paper serves embedded data for every system of the paper's Table II
// except case39: case5, case9, case14, case30, case57, case118 and
// case300 live in internal/grid (see the provenance notes in
// internal/grid/cases.go), each with a fully rated branch set so flow
// constraints and N-1 screening behave as at paper scale, plus the
// beyond-paper 1354-bus scaling system (case1354, synthesized to the
// PEGASE element counts and frozen the same way as case300). case39 —
// and any ad-hoc size — is synthesized here: Generate builds deterministic
// systems with the requested bus/generator/branch counts and realistic
// parameter ranges, then certifies each with one cold solve of its
// unrated AC-OPF: the optimum exists, within the [0.94, 1.06] pu voltage
// band the bus bounds enforce — exactly the property the paper's ±10 %
// load-sampling workload depends on — and becomes the stored operating
// point the rated branches are rated from. See DESIGN.md §9
// ("Substitutions").
package casegen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/batch"
	"repro/internal/grid"
	"repro/internal/opf"
)

// Spec sizes a synthetic system.
type Spec struct {
	Name     string
	Buses    int
	Gens     int
	Branches int // must be ≥ Buses-1 (spanning tree) — meshed beyond that
	// RatedBranches is how many branches get a finite RateA (the IEEE
	// cases differ: case30/case39 have flow limits, case57/118/300 rely
	// on bounds only).
	RatedBranches int
	Seed          int64
	// LoadLevel scales total load relative to total generation capacity
	// (default 0.45).
	LoadLevel float64
}

// PaperSpecs returns the size profiles of the systems used in the paper's
// evaluation (Table II), keyed by their conventional names. The counts
// for λ and µ follow from these sizes exactly as in the paper. The
// case30/case57/case118/case300 profiles are retained for the
// synthetic-generator tests even though Paper serves embedded data
// (grid.Case30 … grid.Case300) for those names; note the embedded
// case118 carries the case file's 186 branches, one more than the
// paper's Table II count reproduced here.
func PaperSpecs() map[string]Spec {
	return map[string]Spec{
		"case30":  {Name: "case30", Buses: 30, Gens: 6, Branches: 41, RatedBranches: 41, Seed: 30},
		"case39":  {Name: "case39", Buses: 39, Gens: 10, Branches: 46, RatedBranches: 46, Seed: 39},
		"case57":  {Name: "case57", Buses: 57, Gens: 7, Branches: 80, RatedBranches: 0, Seed: 57},
		"case118": {Name: "case118", Buses: 118, Gens: 54, Branches: 185, RatedBranches: 0, Seed: 118},
		"case300": {Name: "case300", Buses: 300, Gens: 69, Branches: 411, RatedBranches: 0, Seed: 300},
	}
}

// BeyondPaperSpecs returns the size profiles of the beyond-paper
// scaling systems (the ROADMAP's 1000+ bus frontier; the paper's own
// evaluation stops at 300 buses). case1354 follows the element counts
// of the PEGASE 1354-bus European transmission snapshot — 1354 buses,
// 260 generators, 1991 branches — the conventional next step above
// case300 in the Matpower size ladder.
func BeyondPaperSpecs() map[string]Spec {
	return map[string]Spec{
		"case1354": {Name: "case1354", Buses: 1354, Gens: 260, Branches: 1991, RatedBranches: 0, Seed: 1354},
	}
}

// Generate builds a synthetic case from the spec. The result is
// normalized and certified: its unrated OPF converges from a cold start,
// and the stored operating point is that optimum (see certify).
func Generate(spec Spec) (*grid.Case, error) {
	if spec.Buses < 2 {
		return nil, fmt.Errorf("casegen: need at least 2 buses, got %d", spec.Buses)
	}
	if spec.Gens < 1 || spec.Gens > spec.Buses {
		return nil, fmt.Errorf("casegen: gens %d out of range for %d buses", spec.Gens, spec.Buses)
	}
	if spec.Branches < spec.Buses-1 {
		return nil, fmt.Errorf("casegen: %d branches cannot connect %d buses", spec.Branches, spec.Buses)
	}
	if spec.LoadLevel == 0 {
		spec.LoadLevel = 0.45
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Retry with progressively lighter loading until the OPF certifies
	// the system.
	level := spec.LoadLevel
	for attempt := 0; attempt < 6; attempt++ {
		c := build(spec, rng, level)
		if certify(c) {
			return c, nil
		}
		level *= 0.8
	}
	return nil, fmt.Errorf("casegen: could not produce a feasible %d-bus system (seed %d)", spec.Buses, spec.Seed)
}

// MustGenerate is Generate that panics on failure; for the fixed paper
// specs, generation is deterministic and known-good.
func MustGenerate(spec Spec) *grid.Case {
	c, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return c
}

// Systems resolves a list of paper system names (see Paper) concurrently
// on the batch worker pool, in input order. Each synthetic case is built
// from its own fixed seed, so the result is identical to resolving the
// names sequentially. It backs core.LoadSystems, the fan-out used when
// an experiment sweeps all evaluation systems.
func Systems(names []string, workers int) ([]*grid.Case, error) {
	return batch.Map(len(names), workers, func(i int) (*grid.Case, error) {
		return Paper(names[i])
	})
}

// Paper returns one of the paper's test systems by name: embedded data
// for every system except case39 (synthesized from its Table II
// profile). EmbeddedNames lists the embedded set.
func Paper(name string) (*grid.Case, error) {
	switch name {
	case "case5":
		return grid.Case5(), nil
	case "case9":
		return grid.Case9(), nil
	case "case14":
		return grid.Case14(), nil
	case "case30":
		return grid.Case30(), nil
	case "case57":
		return grid.Case57(), nil
	case "case118":
		return grid.Case118(), nil
	case "case300":
		return grid.Case300(), nil
	case "case1354":
		return grid.Case1354(), nil
	}
	spec, ok := PaperSpecs()[name]
	if !ok {
		spec, ok = BeyondPaperSpecs()[name]
	}
	if !ok {
		return nil, fmt.Errorf("casegen: unknown paper system %q", name)
	}
	return Generate(spec)
}

// EmbeddedNames lists, in size order, the systems Paper serves from
// embedded data rather than synthesis. The docs coverage check and the
// paper-scale benchmark harness iterate this set. case1354 is the
// beyond-paper scaling member (the paper's own evaluation stops at
// case300).
func EmbeddedNames() []string {
	return []string{"case5", "case9", "case14", "case30", "case57", "case118", "case300", "case1354"}
}

// SensitivitySystemNames lists the eight systems of Table I in size order.
func SensitivitySystemNames() []string {
	return []string{"case5", "case9", "case14", "case30", "case39", "case57", "case118", "case300"}
}

func build(spec Spec, rng *rand.Rand, loadLevel float64) *grid.Case {
	nb := spec.Buses
	c := &grid.Case{Name: spec.Name, BaseMVA: 100}

	// Buses: IDs 1..nb. Types are assigned after generator placement.
	for i := 0; i < nb; i++ {
		c.Buses = append(c.Buses, grid.Bus{
			ID: i + 1, Type: grid.PQ, Vm: 1, BaseKV: 138,
			Vmax: 1.06, Vmin: 0.94,
		})
	}

	// Topology: preferential-attachment spanning tree (short average
	// path, hub buses — transmission-grid-like), then chords between
	// random distinct pairs.
	type edge struct{ f, t int }
	edges := make([]edge, 0, spec.Branches)
	have := map[[2]int]bool{}
	addEdge := func(f, t int) bool {
		if f == t {
			return false
		}
		if f > t {
			f, t = t, f
		}
		k := [2]int{f, t}
		if have[k] {
			return false
		}
		have[k] = true
		edges = append(edges, edge{f, t})
		return true
	}
	degree := make([]int, nb)
	for i := 1; i < nb; i++ {
		// Attach to an existing bus, weighted by degree+1.
		total := 0
		for j := 0; j < i; j++ {
			total += degree[j] + 1
		}
		pick := rng.Intn(total)
		at := 0
		for j := 0; j < i; j++ {
			pick -= degree[j] + 1
			if pick < 0 {
				at = j
				break
			}
		}
		addEdge(at, i)
		degree[at]++
		degree[i]++
	}
	for len(edges) < spec.Branches {
		f := rng.Intn(nb)
		t := rng.Intn(nb)
		if addEdge(f, t) {
			degree[f]++
			degree[t]++
		}
	}

	// Larger systems need proportionally stronger corridors or voltages
	// sag below limits; scale impedances with size like real grids where
	// bulk corridors are paralleled.
	xscale := math.Min(1, 18/float64(nb))
	for _, e := range edges {
		x := (0.02 + 0.18*rng.Float64()) * xscale
		br := grid.Branch{
			From: e.f + 1, To: e.t + 1,
			R: x / (2.5 + 2.5*rng.Float64()), X: x,
			B:      0.04 * rng.Float64() * xscale,
			Status: true,
		}
		if rng.Float64() < 0.08 { // a few transformers
			br.Ratio = 0.95 + 0.1*rng.Float64()
			br.B = 0
		}
		c.Branches = append(c.Branches, br)
	}

	// Generators at distinct buses; bus of the first becomes the slack.
	genBuses := rng.Perm(nb)[:spec.Gens]
	totalCap := 0.0
	caps := make([]float64, spec.Gens)
	for g := range caps {
		caps[g] = 60 + 340*rng.Float64() // MW
		totalCap += caps[g]
	}
	for g, bi := range genBuses {
		if g == 0 {
			c.Buses[bi].Type = grid.Ref
		} else {
			c.Buses[bi].Type = grid.PV
		}
		c2 := 0.005 + 0.1*rng.Float64()
		c1 := 10 + 30*rng.Float64()
		qcap := math.Max(0.8*caps[g], 80)
		c.Gens = append(c.Gens, grid.Gen{
			Bus: bi + 1, Vg: 1.01,
			Pmax: caps[g], Pmin: 0,
			Qmax: qcap, Qmin: -qcap,
			Status: true,
			Cost:   grid.PolyCost{C2: c2, C1: c1, C0: 20 + 80*rng.Float64()},
		})
	}

	// Loads at ~70% of buses, log-uniform-ish sizes, scaled to the target
	// level of total capacity; power factor 0.9-0.98.
	totalLoad := loadLevel * totalCap
	weights := make([]float64, nb)
	wsum := 0.0
	for i := 0; i < nb; i++ {
		if rng.Float64() < 0.7 {
			weights[i] = math.Exp(rng.NormFloat64() * 0.7)
			wsum += weights[i]
		}
	}
	if wsum == 0 { // degenerate tiny systems: load the last bus
		weights[nb-1], wsum = 1, 1
	}
	for i := 0; i < nb; i++ {
		if weights[i] == 0 {
			continue
		}
		pd := totalLoad * weights[i] / wsum
		pfac := 0.9 + 0.08*rng.Float64()
		c.Buses[i].Pd = pd
		c.Buses[i].Qd = pd * math.Tan(math.Acos(pfac))
	}

	// Dispatch generators proportionally to capacity to cover the load;
	// certify replaces it with the OPF's dispatch.
	for g := range c.Gens {
		c.Gens[g].Pg = totalLoad * caps[g] / totalCap
	}

	// Branch ratings: assigned after the certifying OPF (see certify) per
	// the fleet-wide rated-branch convention (grid.RatedHeadroom ×
	// base-case flow) so the base point is feasible but the limits bind
	// under load growth.
	if spec.RatedBranches > 0 {
		// Temporary marker; real values set in certify.
		for l := 0; l < len(c.Branches) && l < spec.RatedBranches; l++ {
			c.Branches[l].RateA = -1
		}
	}
	if err := c.Normalize(); err != nil {
		panic(fmt.Sprintf("casegen: internal: %v", err))
	}
	return c
}

// certify solves the unrated OPF of c from a cold start. On convergence
// it anchors c's stored operating point (Vm, Va, Pg, Qg and each unit's
// voltage setpoint Vg) at the optimum, rates the branches build marked
// from the optimum's flows by grid.RateBranches' convention, and returns
// true. The OPF's bus bounds hold every voltage in [Vmin, Vmax]; its
// generator bounds hold the dispatch within capacity.
func certify(c *grid.Case) bool {
	var marked []int
	for l := range c.Branches {
		if c.Branches[l].RateA < 0 {
			marked = append(marked, l)
			c.Branches[l].RateA = 0
		}
	}
	r, err := opf.Prepare(c).Solve(nil, opf.Options{})
	if err != nil || !r.Converged {
		return false
	}
	gbus := grid.GenBusIdx(c)
	for i := range c.Buses {
		c.Buses[i].Vm = r.Vm[i]
		c.Buses[i].Va = grid.Rad2Deg(r.Va[i])
	}
	gi := 0
	for g := range c.Gens {
		if !c.Gens[g].Status {
			continue
		}
		c.Gens[g].Pg = r.Pg[gi]
		c.Gens[g].Qg = r.Qg[gi]
		c.Gens[g].Vg = r.Vm[gbus[gi]]
		gi++
	}
	// RateBranches rates every unrated branch; only the marked ones keep
	// their rating.
	rated := c.Clone()
	grid.RateBranches(rated)
	for _, l := range marked {
		c.Branches[l].RateA = rated.Branches[l].RateA
	}
	return true
}
