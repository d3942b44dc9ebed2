package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba) over a fixed parameter list.
type Adam struct {
	LR           float64 // default 1e-3
	Beta1, Beta2 float64 // defaults 0.9, 0.999
	Eps          float64 // default 1e-8
	WeightDecay  float64 // L2 coefficient, default 0

	params []*Param
	m, v   [][]float64
	t      int
}

// NewAdam binds the optimizer to the parameter list.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	if a.LR == 0 {
		a.LR = 1e-3
	}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Val))
		a.v[i] = make([]float64, len(p.Val))
	}
	return a
}

// Step applies one update from the accumulated gradients.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v, grad := a.m[i], a.v[i], p.grad()
		p.Version++
		for k := range p.Val {
			g := grad[k]
			if a.WeightDecay != 0 {
				g += a.WeightDecay * p.Val[k]
			}
			m[k] = a.Beta1*m[k] + (1-a.Beta1)*g
			v[k] = a.Beta2*v[k] + (1-a.Beta2)*g*g
			p.Val[k] -= a.LR * (m[k] / bc1) / (math.Sqrt(v[k]/bc2) + a.Eps)
		}
	}
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	params []*Param
	vel    [][]float64
}

// NewSGD binds the optimizer to the parameter list.
func NewSGD(params []*Param, lr, momentum float64) *SGD {
	s := &SGD{LR: lr, Momentum: momentum, params: params}
	s.vel = make([][]float64, len(params))
	for i, p := range params {
		s.vel[i] = make([]float64, len(p.Val))
	}
	return s
}

// Step applies one update.
func (s *SGD) Step() {
	for i, p := range s.params {
		v, grad := s.vel[i], p.grad()
		p.Version++
		for k := range p.Val {
			v[k] = s.Momentum*v[k] - s.LR*grad[k]
			p.Val[k] += v[k]
		}
	}
}
