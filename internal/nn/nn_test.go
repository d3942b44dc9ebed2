package nn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

// MSE is the mean squared error, (1/N)·Σ (pred−target)².
type MSE struct{}

// Eval returns the scalar loss and ∂L/∂pred.
func (MSE) Eval(pred, target *la.Matrix) (float64, *la.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: MSE shape mismatch")
	}
	n := float64(pred.Rows * pred.Cols)
	grad := la.NewMatrix(pred.Rows, pred.Cols)
	var loss float64
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

func randBatch(rng *rand.Rand, rows, cols int) *la.Matrix {
	m := la.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// numericalGrad computes dLoss/dParam by central differences, where loss
// is MSE between the net output and a fixed target.
func numericalGrad(net Module, x, target *la.Matrix, p *Param, k int) float64 {
	h := 1e-6
	orig := p.Val[k]
	p.Val[k] = orig + h
	lp, _ := (MSE{}).Eval(net.Forward(x), target)
	p.Val[k] = orig - h
	lm, _ := (MSE{}).Eval(net.Forward(x), target)
	p.Val[k] = orig
	return (lp - lm) / (2 * h)
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lin := NewLinear(4, 3, rng)
	x := randBatch(rng, 5, 4)
	target := randBatch(rng, 5, 3)
	ZeroGrads(lin.Params())
	_, g := (MSE{}).Eval(lin.Forward(x), target)
	lin.Backward(g)
	for _, p := range lin.Params() {
		for k := range p.Val {
			want := numericalGrad(lin, x, target, p, k)
			if math.Abs(p.Grad[k]-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, k, p.Grad[k], want)
			}
		}
	}
}

func TestMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := MLP(rng, false, 3, 8, 8, 2)
	x := randBatch(rng, 4, 3)
	target := randBatch(rng, 4, 2)
	ZeroGrads(net.Params())
	_, g := (MSE{}).Eval(net.Forward(x), target)
	net.Backward(g)
	for _, p := range net.Params() {
		for k := 0; k < len(p.Val); k += 3 { // sample every third weight
			want := numericalGrad(net, x, target, p, k)
			if math.Abs(p.Grad[k]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, k, p.Grad[k], want)
			}
		}
	}
}

func TestSigmoidMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := MLP(rng, true, 3, 6, 2)
	x := randBatch(rng, 4, 3)
	target := randBatch(rng, 4, 2)
	ZeroGrads(net.Params())
	_, g := (MSE{}).Eval(net.Forward(x), target)
	net.Backward(g)
	for _, p := range net.Params() {
		for k := 0; k < len(p.Val); k += 2 {
			want := numericalGrad(net, x, target, p, k)
			if math.Abs(p.Grad[k]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, k, p.Grad[k], want)
			}
		}
	}
}

func TestInputGradCheck(t *testing.T) {
	// Backward's return value is ∂L/∂x — validated by perturbing inputs.
	rng := rand.New(rand.NewSource(4))
	net := MLP(rng, false, 3, 5, 2)
	x := randBatch(rng, 2, 3)
	target := randBatch(rng, 2, 2)
	ZeroGrads(net.Params())
	_, g := (MSE{}).Eval(net.Forward(x), target)
	gin := net.Backward(g)
	h := 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp, _ := (MSE{}).Eval(net.Forward(x), target)
		x.Data[i] = orig - h
		lm, _ := (MSE{}).Eval(net.Forward(x), target)
		x.Data[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(gin.Data[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("input grad %d: analytic %v numeric %v", i, gin.Data[i], want)
		}
	}
}

func TestCharbonnierGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pred := randBatch(rng, 3, 4)
	target := randBatch(rng, 3, 4)
	c := Charbonnier{Eps: 1e-6, Weights: la.Vector{1, 2, 0.5, 1}}
	_, g := c.Eval(pred, target)
	h := 1e-7
	for i := range pred.Data {
		orig := pred.Data[i]
		pred.Data[i] = orig + h
		lp, _ := c.Eval(pred, target)
		pred.Data[i] = orig - h
		lm, _ := c.Eval(pred, target)
		pred.Data[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(g.Data[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("charbonnier grad %d: %v vs %v", i, g.Data[i], want)
		}
	}
}

func TestCharbonnierApproachesL1(t *testing.T) {
	pred := la.NewMatrix(1, 1)
	pred.Data[0] = 3
	target := la.NewMatrix(1, 1)
	loss, _ := Charbonnier{Eps: 1e-12}.Eval(pred, target)
	if math.Abs(loss-3) > 1e-9 {
		t.Fatalf("loss = %v, want |3|", loss)
	}
}

func TestSigmoidRange(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		x := la.NewMatrix(1, 1)
		x.Data[0] = v
		y := (&Sigmoid{}).Forward(x)
		return y.Data[0] > 0 && y.Data[0] < 1 || (v > 700 && y.Data[0] == 1) || (v < -700 && y.Data[0] == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReLUProperty(t *testing.T) {
	// ReLU output is max(0, x) elementwise, and gradients vanish exactly
	// where the input was non-positive.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randBatch(rng, 3, 5)
		r := &ReLU{}
		y := r.Forward(x)
		for i, v := range x.Data {
			if y.Data[i] != math.Max(0, v) {
				return false
			}
		}
		g := la.NewMatrix(3, 5)
		for i := range g.Data {
			g.Data[i] = 1
		}
		gi := r.Backward(g)
		for i, v := range x.Data {
			if (v > 0) != (gi.Data[i] == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAdamOptimizesQuadratic(t *testing.T) {
	// Minimize ||w - c||² directly through a Param.
	p := &Param{Val: make([]float64, 4), Grad: make([]float64, 4)}
	c := []float64{1, -2, 0.5, 3}
	opt := NewAdam([]*Param{p}, 0.05)
	for it := 0; it < 2000; it++ {
		p.ZeroGrad()
		for i := range p.Val {
			p.Grad[i] = 2 * (p.Val[i] - c[i])
		}
		opt.Step()
	}
	for i := range p.Val {
		if math.Abs(p.Val[i]-c[i]) > 1e-3 {
			t.Fatalf("Adam did not converge: %v vs %v", p.Val, c)
		}
	}
}

func TestTrainSineRegression(t *testing.T) {
	// End-to-end: a small MLP fits sin(x) on [-2, 2].
	rng := rand.New(rand.NewSource(7))
	net := MLP(rng, false, 1, 32, 32, 1)
	opt := NewAdam(net.Params(), 3e-3)
	n := 128
	x := la.NewMatrix(n, 1)
	y := la.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		v := -2 + 4*float64(i)/float64(n-1)
		x.Data[i] = v
		y.Data[i] = math.Sin(v)
	}
	var loss float64
	for ep := 0; ep < 1500; ep++ {
		ZeroGrads(net.Params())
		pred := net.Forward(x)
		var g *la.Matrix
		loss, g = (MSE{}).Eval(pred, y)
		net.Backward(g)
		opt.Step()
	}
	if loss > 1e-3 {
		t.Fatalf("sine fit loss = %v", loss)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := MLP(rng, false, 3, 8, 2)
	x := randBatch(rng, 2, 3)
	want := net.Forward(x).Clone()
	var buf bytes.Buffer
	if err := SaveParams(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	net2 := MLP(rand.New(rand.NewSource(999)), false, 3, 8, 2)
	if err := LoadParams(&buf, net2.Params()); err != nil {
		t.Fatal(err)
	}
	got := net2.Forward(x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatal("restored model differs")
		}
	}
}

func TestLoadParamsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := MLP(rng, false, 3, 8, 2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	other := MLP(rng, false, 3, 9, 2)
	if err := LoadParams(&buf, other.Params()); !errors.Is(err, ErrSnapshotShape) {
		t.Fatalf("shape mismatch: got %v, want %v", err, ErrSnapshotShape)
	}
}

// TestGradientsAllocatedByTraining: a layer holds no gradient until
// training touches it — Backward, ZeroGrad or an optimizer step.
func TestGradientsAllocatedByTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fresh := func() *Linear {
		l := NewLinear(3, 2, rng)
		for _, p := range l.Params() {
			if p.Grad != nil {
				t.Fatalf("new %s holds a gradient", p.Name)
			}
		}
		return l
	}
	allocated := func(how string, l *Linear) {
		for _, p := range l.Params() {
			if len(p.Grad) != len(p.Val) {
				t.Errorf("%s: %s has %d gradient values for %d weights", how, p.Name, len(p.Grad), len(p.Val))
			}
		}
	}
	l := fresh()
	NewSequential(l).Infer([]float32{1, 2, 3})
	for _, p := range l.Params() {
		if p.Grad != nil {
			t.Fatalf("Infer allocated %s's gradient", p.Name)
		}
	}
	l.Backward(l.Forward(randBatch(rng, 2, 3)))
	allocated("Backward", l)

	l = fresh()
	ZeroGrads(l.Params())
	allocated("ZeroGrads", l)

	l = fresh()
	NewAdam(l.Params(), 0).Step()
	allocated("Adam.Step", l)
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := MLP(rng, false, 4, 10, 3)
	// 4*10+10 + 10*3+3 = 83, counted from the shapes: the same once
	// the float64 weights are released.
	if n := net.NumParams(); n != 83 {
		t.Fatalf("NumParams = %d want 83", n)
	}
	net.Release()
	if n := net.NumParams(); n != 83 {
		t.Fatalf("NumParams after Release = %d want 83", n)
	}
}

func TestGradAccumulation(t *testing.T) {
	// Two backward passes without ZeroGrads accumulate.
	rng := rand.New(rand.NewSource(12))
	lin := NewLinear(2, 1, rng)
	x := randBatch(rng, 1, 2)
	tgt := randBatch(rng, 1, 1)
	ZeroGrads(lin.Params())
	_, g := (MSE{}).Eval(lin.Forward(x), tgt)
	lin.Backward(g)
	once := append([]float64(nil), lin.W.Grad...)
	_, g = (MSE{}).Eval(lin.Forward(x), tgt)
	lin.Backward(g)
	for i := range once {
		if math.Abs(lin.W.Grad[i]-2*once[i]) > 1e-12 {
			t.Fatal("gradients did not accumulate")
		}
	}
}
