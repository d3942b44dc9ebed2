// Package mtl implements the Smart-PGSim multitask-learning model: a
// shared fully-connected trunk feeding seven task estimators (Va, Vm, Pg,
// Qg, λ, Z, µ) with the paper's physics-dependent hierarchy (Z is
// predicted from X̂, µ from Ẑ), the detach-based feature prioritization,
// and the four physics-informed loss terms f_AC, f_ieq, f_cost and f_Lag.
//
// Predict is safe for concurrent use — it runs on the float32 serving
// path, which caches nothing on the model — so concurrent consumers (the
// evaluation sweeps, screening, trajectories, the serving daemon) share
// one Model per set of weights. Training is not: Forward and Backward
// cache activations on the model, and a trainer works on its own Clone.
// Save/Load round-trip the weights and normalization state; cmd/train
// writes the snapshots cmd/pgsimd loads.
package mtl

import (
	"repro/internal/la"
)

// Range is a per-column min-max normalization to [0, 1], the paper's
// pre-processing for all targets (which also makes the sigmoid-bounded
// Z and µ heads feasible by construction).
type Range struct {
	Min, Max la.Vector
}

// FitRange computes per-column ranges over a sample matrix. Degenerate
// columns (max == min) normalize to 0.5.
func FitRange(m *la.Matrix) Range {
	r := Range{Min: make(la.Vector, m.Cols), Max: make(la.Vector, m.Cols)}
	for j := 0; j < m.Cols; j++ {
		lo, hi := m.At(0, j), m.At(0, j)
		for i := 1; i < m.Rows; i++ {
			v := m.At(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		r.Min[j], r.Max[j] = lo, hi
	}
	return r
}

// Span returns max−min for column j (0 for degenerate columns).
func (r Range) Span(j int) float64 { return r.Max[j] - r.Min[j] }

// Normalize maps a matrix into [0,1] per column (new matrix).
func (r Range) Normalize(m *la.Matrix) *la.Matrix {
	out := la.NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(i, j, r.normVal(m.At(i, j), j))
		}
	}
	return out
}

// NormalizeVec maps a vector into normalized space.
func (r Range) NormalizeVec(v la.Vector) la.Vector {
	out := make(la.Vector, len(v))
	for j := range v {
		out[j] = r.normVal(v[j], j)
	}
	return out
}

func (r Range) normVal(v float64, j int) float64 {
	s := r.Span(j)
	if s == 0 {
		return 0.5
	}
	return (v - r.Min[j]) / s
}

// Denormalize maps normalized values back to physical units.
func (r Range) Denormalize(m *la.Matrix) *la.Matrix {
	out := la.NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(i, j, r.denormVal(m.At(i, j), j))
		}
	}
	return out
}

// DenormalizeVec maps one normalized row back to physical units.
func (r Range) DenormalizeVec(v la.Vector) la.Vector {
	out := make(la.Vector, len(v))
	for j := range v {
		out[j] = r.denormVal(v[j], j)
	}
	return out
}

func (r Range) denormVal(v float64, j int) float64 {
	s := r.Span(j)
	if s == 0 {
		return r.Min[j]
	}
	return r.Min[j] + v*s
}

// ChainGrad converts ∂L/∂physical into ∂L/∂normalized in place:
// multiply by the span of each column.
func (r Range) ChainGrad(gPhys la.Vector) la.Vector {
	out := make(la.Vector, len(gPhys))
	for j := range gPhys {
		out[j] = gPhys[j] * r.Span(j)
	}
	return out
}

// Normalizer bundles the ranges of the model inputs and the four target
// groups.
type Normalizer struct {
	In, X, Lam, Mu, Z Range
}
