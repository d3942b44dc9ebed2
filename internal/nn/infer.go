package nn

// Serving-path inference. Training runs in float64 (nn.go), but the
// serving forward pass is a chain of single-row matvecs whose cost is
// pure memory traffic over the weight matrices — at case300 scale the
// model streams ~27 MiB of float32 weights per prediction. Mainstream DL
// frameworks (including the one behind the original Smart-PGSim model)
// serve in float32, so Infer streams a float32 copy of each Linear's
// weights: half the traffic of the float64 masters, and precision far
// beyond what a warm-start prediction needs — the interior-point solver
// corrects the iterate, and a cold restart guards divergence. The
// float64 master weights stay the source of truth: each Linear
// materializes its float32 copy on first use and revalidates it against
// the owning Params' Version counters, which every mutation path
// (optimizer steps, snapshot loads, weight copies) bumps.
//
// Unlike Forward, Infer is safe for concurrent use on one module
// instance: activations are allocated per call, and the float32 copy is
// immutable once published through the Linear's atomic pointer — two
// goroutines racing on the first use each build a copy and one of them
// wins. What stays excluded is inferring while the weights are being
// mutated (training, Load): Version is a plain counter.

import "math"

// weights32 is one immutable float32 conversion of a Linear's weights,
// tagged with the Param versions it was converted from.
type weights32 struct {
	w, b []float32
	ver  uint64 // W.Version + B.Version at conversion
}

// ensure32 returns the float32 weight copy, converting afresh when
// there is none yet or the master weights changed since it was made.
func (l *Linear) ensure32() *weights32 {
	ver := l.W.Version + l.B.Version
	if c := l.w32.Load(); c != nil && c.ver == ver {
		return c
	}
	c := &weights32{w: make([]float32, len(l.W.Val)), b: make([]float32, len(l.B.Val)), ver: ver}
	for i, v := range l.W.Val {
		c.w[i] = float32(v)
	}
	for i, v := range l.B.Val {
		c.b[i] = float32(v)
	}
	l.w32.Store(c)
	return c
}

// infer32 is the single-sample float32 matvec y = W·x + b, unrolled
// four outputs per pass like Forward so each loaded input feature feeds
// four accumulators.
func (l *Linear) infer32(x []float32) []float32 {
	if len(x) != l.In {
		panic("nn: Linear infer input width mismatch")
	}
	c := l.ensure32()
	in := l.In
	y := make([]float32, l.Out)
	o := 0
	for ; o+4 <= l.Out; o += 4 {
		w0 := c.w[o*in : o*in+in]
		w1 := c.w[(o+1)*in : (o+1)*in+in]
		w2 := c.w[(o+2)*in : (o+2)*in+in]
		w3 := c.w[(o+3)*in : (o+3)*in+in]
		s0, s1, s2, s3 := c.b[o], c.b[o+1], c.b[o+2], c.b[o+3]
		for i, xi := range x {
			s0 += w0[i] * xi
			s1 += w1[i] * xi
			s2 += w2[i] * xi
			s3 += w3[i] * xi
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < l.Out; o++ {
		w := c.w[o*in : o*in+in]
		s := c.b[o]
		for i, xi := range x {
			s += w[i] * xi
		}
		y[o] = s
	}
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
