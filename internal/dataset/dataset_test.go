package dataset

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/opf"
)

func genSmall(t *testing.T, n int) *Set {
	t.Helper()
	set, err := Generate(grid.Case9(), Options{N: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestGenerateBasics(t *testing.T) {
	set := genSmall(t, 12)
	if len(set.Samples)+set.Failed != 12 {
		t.Fatalf("samples %d + failed %d != 12", len(set.Samples), set.Failed)
	}
	if set.Failed > 2 {
		t.Errorf("too many failures on case9: %d", set.Failed)
	}
	for i, s := range set.Samples {
		if len(s.Input) != 18 {
			t.Fatalf("sample %d input len %d", i, len(s.Input))
		}
		if s.Cost <= 0 || s.Iterations <= 0 {
			t.Fatalf("sample %d has cost %v iters %d", i, s.Cost, s.Iterations)
		}
		for _, f := range s.Factors {
			if f < 0.9 || f > 1.1 {
				t.Fatalf("factor %v outside ±10%%", f)
			}
		}
	}
}

func TestGenerateDeterministicFactors(t *testing.T) {
	a := genSmall(t, 6)
	b := genSmall(t, 6)
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range a.Samples {
		for k := range a.Samples[i].Factors {
			if a.Samples[i].Factors[k] != b.Samples[i].Factors[k] {
				t.Fatal("factors not deterministic")
			}
		}
		if math.Abs(a.Samples[i].Cost-b.Samples[i].Cost) > 1e-6 {
			t.Fatal("costs differ between identical runs")
		}
	}
}

func TestGroundTruthIsOptimal(t *testing.T) {
	// Each stored X must satisfy the constraints of its own instance.
	set := genSmall(t, 4)
	base := grid.Case9()
	for _, s := range set.Samples {
		c := base.Clone()
		c.ScaleLoads(s.Factors)
		o := opf.Prepare(c)
		g, _ := o.Equality(s.X)
		h, _ := o.Inequality(s.X)
		if g.NormInf() > 1e-5 {
			t.Fatalf("stored X violates balance by %v", g.NormInf())
		}
		for _, v := range h {
			if v > 1e-5 {
				t.Fatalf("stored X violates flow limit by %v", v)
			}
		}
	}
}

func TestWarmStartFromStoredSolution(t *testing.T) {
	// The dataset's (X, λ, µ, Z) must warm-start its own instance to
	// convergence in a few iterations — the core assumption of the paper.
	set := genSmall(t, 3)
	base := grid.Case9()
	for _, s := range set.Samples {
		c := base.Clone()
		c.ScaleLoads(s.Factors)
		o := opf.Prepare(c)
		r, err := o.Solve(&opf.Start{X: s.X, Lam: s.Lam, Mu: s.Mu, Z: s.Z}, opf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Iterations > s.Iterations/2 {
			t.Errorf("warm start %d iterations vs cold %d", r.Iterations, s.Iterations)
		}
	}
}

func TestSplit(t *testing.T) {
	set := genSmall(t, 10)
	train, val := set.Split(0.8)
	if len(train.Samples)+len(val.Samples) != len(set.Samples) {
		t.Fatal("split lost samples")
	}
	if len(train.Samples) == 0 || len(val.Samples) == 0 {
		t.Fatal("degenerate split")
	}
}

func TestSplitPanicsOnBadFrac(t *testing.T) {
	set := &Set{Samples: make([]Sample, 4)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	set.Split(1.5)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	set := genSmall(t, 5)
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CaseName != set.CaseName || len(got.Samples) != len(set.Samples) {
		t.Fatal("round trip changed set")
	}
	if got.Samples[0].Cost != set.Samples[0].Cost {
		t.Fatal("cost changed")
	}
}

func TestInputVector(t *testing.T) {
	c := grid.Case9()
	in := InputVector(c)
	// Bus 5 (index 4) has 90 MW + 30 MVAr on a 100 MVA base.
	if math.Abs(in[4]-0.9) > 1e-12 || math.Abs(in[9+4]-0.3) > 1e-12 {
		t.Fatalf("InputVector = %v", in)
	}
}

func TestStackAndInputs(t *testing.T) {
	set := genSmall(t, 4)
	m := set.Inputs()
	if m.Rows != len(set.Samples) || m.Cols != 18 {
		t.Fatalf("Inputs dims %dx%d", m.Rows, m.Cols)
	}
	xs := set.Stack(func(s *Sample) la.Vector { return s.X })
	if xs.Rows != len(set.Samples) || xs.Cols != len(set.Samples[0].X) {
		t.Fatal("Stack dims wrong")
	}
	if xs.At(0, 0) != set.Samples[0].X[0] {
		t.Fatal("Stack copied wrong values")
	}
}

func TestMeanStats(t *testing.T) {
	set := genSmall(t, 4)
	if set.MeanIterations() <= 0 || set.MeanSolveTime() <= 0 {
		t.Fatal("means not positive")
	}
}
