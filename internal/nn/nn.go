// Package nn is the minimal deep-learning framework behind the
// Smart-PGSim multitask model: dense layers, ReLU/sigmoid activations,
// reverse-mode differentiation, Charbonnier and physics losses, and the
// Adam optimizer — float64 and stdlib only.
//
// Data layout: a batch is an la.Matrix with one sample per row. Modules
// cache their forward inputs, so one Forward must precede each Backward
// on the same module instance (the usual layer-object convention).
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/la"
)

// Param is one learnable tensor with its gradient accumulator. Grad is
// nil until training first touches it (Backward, ZeroGrad or an
// optimizer step), so a model that only predicts holds no gradients.
type Param struct {
	Name string
	Val  []float64
	Grad []float64

	// Version counts in-place rewrites of Val after construction
	// (optimizer steps, snapshot loads, weight copies). The serving-path
	// float32 weight caches (infer.go) revalidate against it, so every
	// code path that mutates Val must increment it.
	Version uint64

	// released is set when Sequential.Release dropped Val: the tensor
	// lives on only in its layer's float32 copy.
	released bool
}

// ErrReleased is what reading released float64 master values fails with
// (Sequential.Release): saving or copying them, training on them, or
// rebuilding a float32 copy after a weight mutation.
var ErrReleased = errors.New("nn: float64 master weights released")

// Released reports whether Sequential.Release dropped the values.
func (p *Param) Released() bool { return p.released }

// ZeroGrad clears the gradient accumulator, allocating it on first use.
func (p *Param) ZeroGrad() { clear(p.grad()) }

// grad returns the gradient accumulator, allocated zero on first use.
func (p *Param) grad() []float64 {
	if p.Grad == nil {
		p.Grad = make([]float64, len(p.Val))
	}
	return p.Grad
}

// Module is a differentiable block.
type Module interface {
	// Forward consumes a batch (rows = samples) and returns the output
	// batch, caching whatever Backward needs.
	Forward(x *la.Matrix) *la.Matrix
	// Backward consumes ∂L/∂output and returns ∂L/∂input, accumulating
	// parameter gradients.
	Backward(gradOut *la.Matrix) *la.Matrix
	// Params returns the learnable tensors (empty for activations).
	Params() []*Param
}

// Linear is a fully-connected layer y = x·Wᵀ + b.
type Linear struct {
	In, Out int
	W       *Param // Out×In, row-major
	B       *Param // Out
	xCache  *la.Matrix

	// float32 serving-path weight copy (infer.go), nil until first built.
	// A published copy is never written again, so any number of
	// goroutines may infer through one Linear.
	w32 atomic.Pointer[weights32]
}

// NewLinear creates a dense layer with He-uniform initialization drawn
// from rng (pass a deterministic source for reproducible models). A nil
// rng leaves the weights zero, for a layer whose values are about to be
// loaded or copied.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W: &Param{Name: fmt.Sprintf("linear%dx%d.W", out, in), Val: make([]float64, in*out)},
		B: &Param{Name: fmt.Sprintf("linear%dx%d.b", out, in), Val: make([]float64, out)},
	}
	if rng == nil {
		return l
	}
	bound := math.Sqrt(6.0 / float64(in))
	for i := range l.W.Val {
		l.W.Val[i] = (2*rng.Float64() - 1) * bound
	}
	return l
}

// Forward computes y = x·Wᵀ + b. The output loop is unrolled four
// neurons at a time so each loaded input feature feeds four independent
// accumulators instead of re-streaming the x row per output. (Serving
// does not come through here: Infer runs the float32 column kernel of
// infer.go.)
func (l *Linear) Forward(x *la.Matrix) *la.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d features, got %d", l.In, x.Cols))
	}
	if l.W.released {
		panic(fmt.Errorf("%w: Forward through %s", ErrReleased, l.W.Name))
	}
	l.xCache = x
	y := la.NewMatrix(x.Rows, l.Out)
	in := l.In
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		o := 0
		for ; o+4 <= l.Out; o += 4 {
			w0 := l.W.Val[o*in : o*in+in]
			w1 := l.W.Val[(o+1)*in : (o+1)*in+in]
			w2 := l.W.Val[(o+2)*in : (o+2)*in+in]
			w3 := l.W.Val[(o+3)*in : (o+3)*in+in]
			s0, s1, s2, s3 := l.B.Val[o], l.B.Val[o+1], l.B.Val[o+2], l.B.Val[o+3]
			for i, xi := range xr {
				s0 += w0[i] * xi
				s1 += w1[i] * xi
				s2 += w2[i] * xi
				s3 += w3[i] * xi
			}
			yr[o], yr[o+1], yr[o+2], yr[o+3] = s0, s1, s2, s3
		}
		for ; o < l.Out; o++ {
			w := l.W.Val[o*in : o*in+in]
			s := l.B.Val[o]
			for i, xi := range xr {
				s += w[i] * xi
			}
			yr[o] = s
		}
	}
	return y
}

// Backward accumulates dW, db and returns ∂L/∂x.
func (l *Linear) Backward(gradOut *la.Matrix) *la.Matrix {
	x := l.xCache
	if x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	if gradOut.Rows != x.Rows || gradOut.Cols != l.Out {
		panic("nn: Linear.Backward shape mismatch")
	}
	gin := la.NewMatrix(x.Rows, l.In)
	bGrad, wGrad := l.B.grad(), l.W.grad()
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		gr := gradOut.Row(r)
		gi := gin.Row(r)
		for o := 0; o < l.Out; o++ {
			g := gr[o]
			if g == 0 {
				continue
			}
			bGrad[o] += g
			w := l.W.Val[o*l.In : (o+1)*l.In]
			dw := wGrad[o*l.In : (o+1)*l.In]
			for i, xi := range xr {
				dw[i] += g * xi
				gi[i] += g * w[i]
			}
		}
	}
	return gin
}

// Params returns W and b.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU is the rectified linear activation.
type ReLU struct{ mask []bool }

// Forward clamps negatives to zero.
func (a *ReLU) Forward(x *la.Matrix) *la.Matrix {
	y := x.Clone()
	a.mask = make([]bool, len(y.Data))
	for i, v := range y.Data {
		if v > 0 {
			a.mask[i] = true
		} else {
			y.Data[i] = 0
		}
	}
	return y
}

// Backward gates the gradient by the forward mask.
func (a *ReLU) Backward(gradOut *la.Matrix) *la.Matrix {
	if a.mask == nil || len(a.mask) != len(gradOut.Data) {
		panic("nn: ReLU.Backward before matching Forward")
	}
	g := gradOut.Clone()
	for i := range g.Data {
		if !a.mask[i] {
			g.Data[i] = 0
		}
	}
	return g
}

// Params returns nil (no learnables).
func (a *ReLU) Params() []*Param { return nil }

// Sigmoid is the logistic activation, used by the Z and µ heads to bound
// predictions into (0, 1) — the paper's hard-constraint projection.
type Sigmoid struct{ out *la.Matrix }

// Forward applies 1/(1+e^-x).
func (a *Sigmoid) Forward(x *la.Matrix) *la.Matrix {
	y := la.NewMatrix(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = 1 / (1 + math.Exp(-v))
	}
	a.out = y
	return y
}

// Backward multiplies by σ(x)(1−σ(x)).
func (a *Sigmoid) Backward(gradOut *la.Matrix) *la.Matrix {
	if a.out == nil {
		panic("nn: Sigmoid.Backward before Forward")
	}
	g := la.NewMatrix(gradOut.Rows, gradOut.Cols)
	for i := range g.Data {
		s := a.out.Data[i]
		g.Data[i] = gradOut.Data[i] * s * (1 - s)
	}
	return g
}

// Params returns nil.
func (a *Sigmoid) Params() []*Param { return nil }

// Sequential chains modules.
type Sequential struct{ Mods []Module }

// NewSequential builds a chain.
func NewSequential(mods ...Module) *Sequential { return &Sequential{Mods: mods} }

// Forward runs the chain left to right.
func (s *Sequential) Forward(x *la.Matrix) *la.Matrix {
	for _, m := range s.Mods {
		x = m.Forward(x)
	}
	return x
}

// Backward runs the chain right to left.
func (s *Sequential) Backward(gradOut *la.Matrix) *la.Matrix {
	for i := len(s.Mods) - 1; i >= 0; i-- {
		gradOut = s.Mods[i].Backward(gradOut)
	}
	return gradOut
}

// Params concatenates the chain's parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, m := range s.Mods {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// MLP builds Linear+ReLU stacks with the given layer widths; the final
// layer is linear (no activation) unless sigmoidOut is set. The output
// layer's weights are initialized small so a sigmoid output starts near
// 0.5 (un-saturated) instead of pinned at 0/1 where its gradient
// vanishes. A nil rng builds the chain with zero weights (see NewLinear).
func MLP(rng *rand.Rand, sigmoidOut bool, widths ...int) *Sequential {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	var mods []Module
	for i := 0; i+1 < len(widths); i++ {
		lin := NewLinear(widths[i], widths[i+1], rng)
		if i+2 == len(widths) && rng != nil {
			for k := range lin.W.Val {
				lin.W.Val[k] *= 0.1
			}
		}
		mods = append(mods, lin)
		if i+2 < len(widths) {
			mods = append(mods, &ReLU{})
		}
	}
	if sigmoidOut {
		mods = append(mods, &Sigmoid{})
	}
	return NewSequential(mods...)
}

// ZeroGrads clears every parameter gradient in the list.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// NumParams counts the chain's scalar learnables from its layer shapes,
// so a released chain counts the weights it serves in float32.
func (s *Sequential) NumParams() int {
	n := 0
	for _, m := range s.Mods {
		if l, ok := m.(*Linear); ok {
			n += l.In*l.Out + l.Out
		}
	}
	return n
}
