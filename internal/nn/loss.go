package nn

import (
	"math"

	"repro/internal/la"
)

// Charbonnier is the loss of Eqn 4 in the paper: a smooth L1,
// L = (1/N)·Σ w·sqrt((pred−target)² + ε²). Weight w is per-output-column
// (task weighting); pass nil for uniform weights.
type Charbonnier struct {
	Eps     float64   // paper uses 1e-9
	Weights la.Vector // optional, per column
}

// Eval returns the scalar loss and ∂L/∂pred for a batch.
func (c Charbonnier) Eval(pred, target *la.Matrix) (float64, *la.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: Charbonnier shape mismatch")
	}
	eps := c.Eps
	if eps == 0 {
		eps = 1e-9
	}
	n := float64(pred.Rows * pred.Cols)
	grad := la.NewMatrix(pred.Rows, pred.Cols)
	var loss float64
	for r := 0; r < pred.Rows; r++ {
		pr, tr, gr := pred.Row(r), target.Row(r), grad.Row(r)
		for j := range pr {
			w := 1.0
			if c.Weights != nil {
				w = c.Weights[j]
			}
			d := pr[j] - tr[j]
			s := math.Sqrt(d*d + eps*eps)
			loss += w * s
			gr[j] = w * d / s / n
		}
	}
	return loss / n, grad
}
