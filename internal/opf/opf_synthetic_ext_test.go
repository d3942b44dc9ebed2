package opf_test

// OPF tests on case39, the frozen synthetic Table II system (the
// warm-start check runs the IEEE case57 and case118 beside it).

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/grid"
	"repro/internal/opf"
)

// The warm-start acceleration must hold on the synthetic Table II
// system case39, not only on the IEEE cases.
func TestWarmStartSyntheticSystems(t *testing.T) {
	names := []string{"case39", "case57"}
	if !testing.Short() {
		names = append(names, "case118")
	}
	for _, name := range names {
		c, err := grid.ByName(name)
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

// The rated synthetic case39 respects its flow limits at its cold
// optimum, pinned at 19,077.461 $/hr in 16 iterations.
func TestSyntheticFlowLimits(t *testing.T) {
	c := grid.Case39()
	o := opf.Prepare(c)
	r, err := o.Solve(nil, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Cost-19077.461) > 0.005 || r.Iterations != 16 {
		t.Errorf("cold optimum %.6f in %d iterations, want 19077.461 ± 0.005 in 16", r.Cost, r.Iterations)
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
