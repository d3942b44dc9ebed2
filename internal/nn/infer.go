package nn

// Serving-path inference. Training runs in float64 (nn.go), but the
// serving forward pass is a chain of single-row matvecs, and mainstream
// DL frameworks (including the one behind the original Smart-PGSim
// model) serve in float32. So Infer runs on a float32 copy of each
// Linear's weights: half the bytes of the float64 masters, at precision
// far beyond what a warm-start prediction needs — the interior-point
// solver corrects the iterate, and a cold restart guards divergence.
//
// The copy is stored column-major, one contiguous column per input
// feature, because most inputs of a served model are exact zeros: every
// layer after the first is fed by a ReLU, and on the trained case300
// model 70–95 % of those activations are zero. A matvec over columns
// skips a zero input's whole column, so a prediction reads the weights
// of its active features only. Each output still accumulates b + Σ W[o][i]·x[i] in
// ascending i, in float32, exactly as a row-by-row dot product would;
// the skipped terms are ±0, which can change only the sign of a sum
// that is exactly zero. That sign aside, outputs are bit-identical to
// the dense row-major matvec's (infer_test.go keeps it as the
// reference).
//
// The columns are added by addCols, eight per pass over y. On amd64 it
// is one SSE2 routine (addcols_amd64.s) that takes four outputs per
// MULPS/ADDPS step and the last Out mod 4 with MULSS/ADDSS; a remainder
// of fewer than eight columns takes the same routine's shorter pass.
// Each output still receives y[o] += a·w[o] term by term in ascending
// input order, the product rounded to float32 before the add, which is
// the sequence the portable Go loop (addcols_other.go) runs — so no
// prediction changes by a bit. A fused multiply-add would skip that
// rounding and move the last bits. SSE2 is baseline amd64, so there is
// no CPU dispatch: a case300 head layer's weights come from L3, which
// the SSE2 pass already reads at about twice the Go loop's rate and an
// AVX2 pass no faster; AVX2 gains only on layers held in L2.
//
// The float64 master weights stay the source of truth: each Linear
// materializes its float32 copy on first use and revalidates it against
// the owning Params' Version counters, which every mutation path
// (optimizer steps, snapshot loads, weight copies) bumps. A chain that
// only serves drops the masters once its copies are built (Release):
// from then on the copy is the weights, and a mutation that would need
// it rebuilt fails with ErrReleased.
//
// Unlike Forward, Infer is safe for concurrent use on one module
// instance: activations are allocated per call, and the float32 copy is
// immutable once published through the Linear's atomic pointer — two
// goroutines racing on the first use each build a copy and one of them
// wins. What stays excluded is inferring while the weights are being
// mutated (training, Load): Version is a plain counter.

import (
	"fmt"
	"math"
)

// weights32 is one immutable float32 conversion of a Linear's weights,
// tagged with the Param versions it was converted from. wt holds W
// column-major: input feature i's weights are wt[i*Out : (i+1)*Out].
type weights32 struct {
	wt, b []float32
	ver   uint64 // W.Version + B.Version at conversion
}

// transposeTile is the block edge of the conversion's transpose. Each
// column's run of 16 float32 outputs fills one 64-byte cache line, and
// the 16 lines of a block stay in L1 even when Out is a power of two
// (2 KiB apart at Out = 512, they share sets); 32 thrashed there and
// took 2.7× as long on the 512-output layers.
const transposeTile = 16

// ensure32 returns the float32 weight copy, converting afresh when
// there is none yet or the master weights changed since it was made.
func (l *Linear) ensure32() *weights32 {
	ver := l.W.Version + l.B.Version
	if c := l.w32.Load(); c != nil && c.ver == ver {
		return c
	}
	if l.W.released {
		panic(fmt.Errorf("%w: %s changed after its release", ErrReleased, l.W.Name))
	}
	in, out := l.In, l.Out
	c := &weights32{wt: make([]float32, len(l.W.Val)), b: make([]float32, len(l.B.Val)), ver: ver}
	for o0 := 0; o0 < out; o0 += transposeTile {
		for i0 := 0; i0 < in; i0 += transposeTile {
			for o := o0; o < min(o0+transposeTile, out); o++ {
				row := l.W.Val[o*in : o*in+in]
				for i := i0; i < min(i0+transposeTile, in); i++ {
					c.wt[i*out+o] = float32(row[i])
				}
			}
		}
	}
	for i, v := range l.B.Val {
		c.b[i] = float32(v)
	}
	l.w32.Store(c)
	return c
}

// colsPerPass is how many weight columns infer32 adds into y per sweep
// over it: each output is loaded and stored once per eight products.
const colsPerPass = 8

// infer32 is the single-sample float32 matvec y = W·x + b over the
// nonzero inputs only: y starts at b and takes x[i]·W(:,i) for every
// x[i] ≠ 0 in ascending i, colsPerPass columns per addCols pass and the
// remainder in one shorter pass.
func (l *Linear) infer32(x []float32) []float32 {
	if len(x) != l.In {
		panic("nn: Linear infer input width mismatch")
	}
	c := l.ensure32()
	out := l.Out
	y := make([]float32, out)
	copy(y, c.b)
	var w [colsPerPass][]float32
	var a [colsPerPass]float32
	n := 0
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		w[n], a[n] = c.wt[i*out:][:out], xi
		n++
		if n == colsPerPass {
			addCols(y, &w, &a, n)
			n = 0
		}
	}
	addCols(y, &w, &a, n)
	return y
}

// Materialize32 eagerly builds the float32 weight copy of every Linear
// in the chain, so a model pays the conversion where its weights stop
// changing instead of inside its first timed prediction.
func (s *Sequential) Materialize32() {
	for _, m := range s.Mods {
		if l, ok := m.(*Linear); ok {
			l.ensure32()
		}
	}
}

// Release builds every Linear's float32 copy, then drops its float64
// weight matrix and every gradient, so a chain that only serves holds
// its weights once, at 4 bytes each; the biases (Out values a layer)
// stay. Infer answers bit for bit as before. Training, saving or
// copying the chain, or rebuilding a copy after a weight mutation, fails
// with ErrReleased from then on. Releasing twice is a no-op.
func (s *Sequential) Release() {
	for _, m := range s.Mods {
		if l, ok := m.(*Linear); ok {
			l.ensure32()
			l.W.Val, l.W.Grad, l.W.released = nil, nil, true
			l.B.Grad = nil
		}
	}
}

// Infer runs the chain on one sample in float32. Activations may be
// applied in place, so the returned slice can alias x when the chain
// starts with an activation; callers that reuse x must pass a copy.
// Training caches are untouched — Infer never interleaves with an
// in-flight Forward/Backward pair.
func (s *Sequential) Infer(x []float32) []float32 {
	for _, m := range s.Mods {
		switch t := m.(type) {
		case *Linear:
			x = t.infer32(x)
		case *ReLU:
			for i, v := range x {
				if v < 0 {
					x[i] = 0
				}
			}
		case *Sigmoid:
			for i, v := range x {
				x[i] = float32(1 / (1 + math.Exp(-float64(v))))
			}
		default:
			panic("nn: Infer does not support this module type")
		}
	}
	return x
}
