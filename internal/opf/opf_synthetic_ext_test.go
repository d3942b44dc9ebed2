package opf_test

// The synthetic-system OPF tests live in the external test package:
// casegen certifies its systems with opf, so package opf's own tests
// cannot import it.

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/casegen"
	"repro/internal/grid"
	"repro/internal/opf"
)

// The warm-start acceleration must hold on the synthetic Table II
// systems, not only on the embedded IEEE cases (case30 is embedded now,
// so case39 carries the rated synthetic profile here).
func TestWarmStartSyntheticSystems(t *testing.T) {
	names := []string{"case39", "case57"}
	if !testing.Short() {
		names = append(names, "case118")
	}
	for _, name := range names {
		c, err := casegen.Paper(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o := opf.Prepare(c)
		cold, err := o.Solve(nil, opf.Options{})
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		warm, err := o.Solve(&opf.Start{X: cold.X, Lam: cold.Lam, Mu: cold.Mu, Z: cold.Z}, opf.Options{})
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		if warm.Iterations*3 > cold.Iterations {
			t.Errorf("%s: warm %d vs cold %d iterations", name, warm.Iterations, cold.Iterations)
		}
		if math.Abs(warm.Cost-cold.Cost)/cold.Cost > 1e-6 {
			t.Errorf("%s: warm cost drifted %.6f vs %.6f", name, warm.Cost, cold.Cost)
		}
	}
}

// Rated synthetic systems must respect their flow limits at the optimum.
func TestSyntheticFlowLimits(t *testing.T) {
	c, err := casegen.Paper("case39")
	if err != nil {
		t.Fatal(err)
	}
	o := opf.Prepare(c)
	r, err := o.Solve(nil, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := grid.MakeYbus(c)
	v := grid.Voltage(r.Vm, r.Va)
	sf, st := grid.BranchFlows(y, v)
	for l, br := range c.ActiveBranches() {
		if br.RateA <= 0 {
			continue
		}
		lim := br.RateA / c.BaseMVA
		if fl := cmplx.Abs(sf[l]); fl > lim+1e-5 {
			t.Errorf("branch %d from-flow %.4f exceeds %.4f", l, fl, lim)
		}
		if fl := cmplx.Abs(st[l]); fl > lim+1e-5 {
			t.Errorf("branch %d to-flow %.4f exceeds %.4f", l, fl, lim)
		}
	}
}
