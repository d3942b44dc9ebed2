package mtl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/nn"
	"repro/internal/opf"
)

func case9Data(t *testing.T, n int) (*grid.Case, *opf.OPF, *dataset.Set) {
	t.Helper()
	c := grid.Case9()
	o := opf.Prepare(c)
	set, err := dataset.Generate(c, dataset.DefaultPreparer, dataset.Options{N: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c, o, set
}

func TestRangeRoundTrip(t *testing.T) {
	m := la.NewMatrix(3, 2)
	copy(m.Data, []float64{1, 5, 3, 5, 2, 5})
	r := FitRange(m)
	if r.Min[0] != 1 || r.Max[0] != 3 {
		t.Fatalf("range: %v %v", r.Min, r.Max)
	}
	norm := r.Normalize(m)
	for _, v := range norm.Data {
		if v < 0 || v > 1 {
			t.Fatalf("normalized outside [0,1]: %v", v)
		}
	}
	// Degenerate column 1 normalizes to 0.5 and denormalizes to min.
	if norm.At(0, 1) != 0.5 {
		t.Fatalf("degenerate column: %v", norm.At(0, 1))
	}
	back := r.Denormalize(norm)
	for i := range m.Data {
		if math.Abs(back.Data[i]-m.Data[i]) > 1e-12 {
			t.Fatal("round trip failed")
		}
	}
}

func TestChainGradMatchesDenormalize(t *testing.T) {
	r := Range{Min: la.Vector{1, 0}, Max: la.Vector{3, 10}}
	// d phys/d norm = span, so chain of gradient 1 is the span itself.
	g := r.ChainGrad(la.Vector{1, 1})
	if g[0] != 2 || g[1] != 10 {
		t.Fatalf("ChainGrad = %v", g)
	}
}

func TestModelShapes(t *testing.T) {
	_, o, _ := case9Data(t, 4)
	for _, v := range []Variant{VariantSeparate, VariantMTL, VariantSmartPGSim} {
		cfg := DefaultConfig()
		cfg.Variant = v
		cfg.Hierarchy = v != VariantSeparate
		m := New(o.Lay, cfg)
		in := la.NewMatrix(3, 2*o.Lay.NB)
		rng := rand.New(rand.NewSource(1))
		for i := range in.Data {
			in.Data[i] = rng.Float64()
		}
		p := m.Forward(in)
		if p.X.Cols != o.Lay.NX || p.Lam.Cols != o.Lay.NEq ||
			p.Mu.Cols != o.Lay.NIq || p.Z.Cols != o.Lay.NIq {
			t.Fatalf("%v: wrong output shapes", v)
		}
		// Sigmoid heads keep Z and µ in (0,1).
		for _, val := range p.Z.Data {
			if val <= 0 || val >= 1 {
				t.Fatalf("%v: Z out of (0,1): %v", v, val)
			}
		}
	}
}

func TestSeparateVariantHasMoreParams(t *testing.T) {
	_, o, _ := case9Data(t, 4)
	cfgSep := Config{Variant: VariantSeparate, Seed: 1}
	cfgMTL := Config{Variant: VariantMTL, Hierarchy: true, Seed: 1}
	sep := New(o.Lay, cfgSep).NumParams()
	shared := New(o.Lay, cfgMTL).NumParams()
	if sep <= shared {
		t.Fatalf("separate %d params should exceed shared %d", sep, shared)
	}
}

// Gradient check through the full MTL DAG (hierarchy included): compare
// analytic parameter gradients against finite differences of the total
// supervised loss.
func TestModelGradCheck(t *testing.T) {
	_, o, _ := case9Data(t, 4)
	cfg := Config{Variant: VariantMTL, Hierarchy: true, Seed: 3,
		TrunkWidths: []int{10, 8}, HeadHidden: 6}
	m := New(o.Lay, cfg)
	rng := rand.New(rand.NewSource(2))
	batch := 3
	in := la.NewMatrix(batch, 2*o.Lay.NB)
	for i := range in.Data {
		in.Data[i] = rng.Float64()
	}
	tX := la.NewMatrix(batch, o.Lay.NX)
	tLam := la.NewMatrix(batch, o.Lay.NEq)
	tMu := la.NewMatrix(batch, o.Lay.NIq)
	tZ := la.NewMatrix(batch, o.Lay.NIq)
	for _, m2 := range []*la.Matrix{tX, tLam, tMu, tZ} {
		for i := range m2.Data {
			m2.Data[i] = rng.Float64()
		}
	}
	loss := func() float64 {
		p := m.Forward(in)
		l1, _ := (nn.MSE{}).Eval(p.X, tX)
		l2, _ := (nn.MSE{}).Eval(p.Lam, tLam)
		l3, _ := (nn.MSE{}).Eval(p.Mu, tMu)
		l4, _ := (nn.MSE{}).Eval(p.Z, tZ)
		return l1 + l2 + l3 + l4
	}
	nn.ZeroGrads(m.Params())
	p := m.Forward(in)
	_, gX := (nn.MSE{}).Eval(p.X, tX)
	_, gLam := (nn.MSE{}).Eval(p.Lam, tLam)
	_, gMu := (nn.MSE{}).Eval(p.Mu, tMu)
	_, gZ := (nn.MSE{}).Eval(p.Z, tZ)
	m.Backward(&Pred{X: gX, Lam: gLam, Mu: gMu, Z: gZ}, false)

	h := 1e-6
	for _, prm := range m.Params() {
		stride := len(prm.Val)/5 + 1
		for k := 0; k < len(prm.Val); k += stride {
			orig := prm.Val[k]
			prm.Val[k] = orig + h
			lp := loss()
			prm.Val[k] = orig - h
			lm := loss()
			prm.Val[k] = orig
			want := (lp - lm) / (2 * h)
			if math.Abs(prm.Grad[k]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", prm.Name, k, prm.Grad[k], want)
			}
		}
	}
}

// With detach, no gradient reaches the trunk through the aux heads: a
// pure-aux loss must leave trunk parameter gradients at zero.
func TestDetachBlocksTrunkGradients(t *testing.T) {
	_, o, _ := case9Data(t, 4)
	cfg := Config{Variant: VariantMTL, Hierarchy: true, Seed: 4,
		TrunkWidths: []int{8, 6}, HeadHidden: 5}
	m := New(o.Lay, cfg)
	in := la.NewMatrix(2, 2*o.Lay.NB)
	rng := rand.New(rand.NewSource(5))
	for i := range in.Data {
		in.Data[i] = rng.Float64()
	}
	nn.ZeroGrads(m.Params())
	p := m.Forward(in)
	gLam := la.NewMatrix(2, o.Lay.NEq)
	gMu := la.NewMatrix(2, o.Lay.NIq)
	gZ := la.NewMatrix(2, o.Lay.NIq)
	for i := range gLam.Data {
		gLam.Data[i] = 1
	}
	for i := range gMu.Data {
		gMu.Data[i] = 1
	}
	for i := range gZ.Data {
		gZ.Data[i] = 1
	}
	m.Backward(&Pred{X: la.NewMatrix(2, o.Lay.NX), Lam: gLam, Mu: gMu, Z: gZ}, true)
	for _, prm := range m.trunks[0].Params() {
		for k, g := range prm.Grad {
			if g != 0 {
				t.Fatalf("trunk %s[%d] received gradient %v under detach", prm.Name, k, g)
			}
		}
	}
	_ = p
}

// Physics loss gradients vs finite differences.
func TestPhysicsGradients(t *testing.T) {
	c, o, set := case9Data(t, 3)
	phys := NewPhysics(o, dataset.InputVector(c))
	s := &set.Samples[0]
	x := s.X.Clone()
	// Perturb away from the optimum so residuals are nonzero.
	for i := range x {
		x[i] += 0.01 * math.Sin(float64(i))
	}
	in := s.Input

	checkGrad := func(name string, eval func(v la.Vector) float64, x0, g la.Vector, tol float64) {
		t.Helper()
		h := 1e-6
		for k := 0; k < len(x0); k += 3 {
			orig := x0[k]
			x0[k] = orig + h
			lp := eval(x0)
			x0[k] = orig - h
			lm := eval(x0)
			x0[k] = orig
			want := (lp - lm) / (2 * h)
			if math.Abs(g[k]-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d]: analytic %v numeric %v", name, k, g[k], want)
			}
		}
	}

	_, gAC := phys.AC(x, in)
	checkGrad("AC", func(v la.Vector) float64 { l, _ := phys.AC(v, in); return l }, x, gAC, 1e-4)

	_, gIeq := phys.Ieq(x)
	checkGrad("Ieq", func(v la.Vector) float64 { l, _ := phys.Ieq(v); return l }, x, gIeq, 1e-4)

	_, gCost := phys.Cost(x, s.Cost)
	checkGrad("Cost", func(v la.Vector) float64 { l, _ := phys.Cost(v, s.Cost); return l }, x, gCost, 1e-4)

	lam := s.Lam.Clone().Scale(1.1)
	mu := s.Mu.Clone().Scale(1.1)
	z := s.Z.Clone().Scale(0.9)
	_, gx, glam, gmu, gz := phys.Lag(x, lam, mu, z, in)
	checkGrad("Lag/x", func(v la.Vector) float64 {
		l, _, _, _, _ := phys.Lag(v, lam, mu, z, in)
		return l
	}, x, gx, 1e-4)
	checkGrad("Lag/lam", func(v la.Vector) float64 {
		l, _, _, _, _ := phys.Lag(x, v, mu, z, in)
		return l
	}, lam, glam, 1e-4)
	checkGrad("Lag/mu", func(v la.Vector) float64 {
		l, _, _, _, _ := phys.Lag(x, lam, v, z, in)
		return l
	}, mu, gmu, 1e-4)
	checkGrad("Lag/z", func(v la.Vector) float64 {
		l, _, _, _, _ := phys.Lag(x, lam, mu, v, in)
		return l
	}, z, gz, 1e-4)
}

// f_AC evaluated at a sample's own ground-truth X must be near zero —
// the residual-shift construction is consistent with the solver.
func TestPhysicsACZeroAtGroundTruth(t *testing.T) {
	c, o, set := case9Data(t, 3)
	phys := NewPhysics(o, dataset.InputVector(c))
	for _, s := range set.Samples {
		l, _ := phys.AC(s.X, s.Input)
		if l > 1e-4 {
			t.Fatalf("AC loss at ground truth = %v", l)
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	c, o, set := case9Data(t, 40)
	cfg := DefaultConfig()
	cfg.Seed = 11
	m := New(o.Lay, cfg)
	phys := NewPhysics(o, dataset.InputVector(c))
	hist, err := Train(m, phys, set, TrainConfig{Epochs: 30, BatchSize: 16, LR: 2e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist.Supervised[0], hist.Supervised[len(hist.Supervised)-1]
	if last >= first {
		t.Fatalf("supervised loss did not decrease: %v -> %v", first, last)
	}
	if last > first*0.6 {
		t.Errorf("weak training progress: %v -> %v", first, last)
	}
}

func TestTrainedModelWarmStartConverges(t *testing.T) {
	// End-to-end miniature of the paper: train on case9 samples, then
	// warm-start unseen instances and compare against cold-start.
	c, o, set := case9Data(t, 60)
	train, val := set.Split(0.8)
	cfg := DefaultConfig()
	cfg.Seed = 13
	m := New(o.Lay, cfg)
	phys := NewPhysics(o, dataset.InputVector(c))
	if _, err := Train(m, phys, train, TrainConfig{Epochs: 120, BatchSize: 16, LR: 2e-3, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	warmWins := 0
	for _, s := range val.Samples {
		cc := c.Clone()
		cc.ScaleLoads(s.Factors)
		ov := opf.Prepare(cc)
		start := m.Predict(s.Input)
		r, err := ov.Solve(start, opf.Options{})
		if err == nil && r.Converged && r.Iterations < s.Iterations {
			warmWins++
		}
	}
	// The model must accelerate a clear majority of unseen instances.
	if warmWins*2 < len(val.Samples) {
		t.Fatalf("warm start won only %d/%d validation instances", warmWins, len(val.Samples))
	}
}

func TestPredictPositivity(t *testing.T) {
	c, o, set := case9Data(t, 20)
	cfg := DefaultConfig()
	m := New(o.Lay, cfg)
	phys := NewPhysics(o, dataset.InputVector(c))
	if _, err := Train(m, phys, set, TrainConfig{Epochs: 5, BatchSize: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	st := m.Predict(set.Samples[0].Input)
	for i, v := range st.Mu {
		if v <= 0 {
			t.Fatalf("Mu[%d] = %v not positive", i, v)
		}
	}
	for i, v := range st.Z {
		if v <= 0 {
			t.Fatalf("Z[%d] = %v not positive", i, v)
		}
	}
	if len(st.X) != o.Lay.NX || len(st.Lam) != o.Lay.NEq {
		t.Fatal("prediction shapes wrong")
	}
}

func TestSaveLoadModel(t *testing.T) {
	_, o, set := case9Data(t, 10)
	cfg := Config{Variant: VariantMTL, Hierarchy: true, Seed: 21}
	m := New(o.Lay, cfg)
	if _, err := Train(m, nil, set, TrainConfig{Epochs: 2, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(o.Lay, cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Predict(set.Samples[0].Input)
	b := m2.Predict(set.Samples[0].Input)
	if a.X.Clone().Sub(b.X).NormInf() > 1e-12 {
		t.Fatal("loaded model predicts differently")
	}
}

func TestTrainErrorsWithoutPhysicsProvider(t *testing.T) {
	_, o, set := case9Data(t, 6)
	m := New(o.Lay, DefaultConfig())
	if _, err := Train(m, nil, set, TrainConfig{Epochs: 1}); err == nil {
		t.Fatal("expected error when physics provider missing")
	}
}
