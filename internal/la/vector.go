// Package la provides the dense linear-algebra kernels used throughout
// Smart-PGSim: vectors, row-major matrices, LU factorization with partial
// pivoting, and the norms and elementwise helpers the interior-point solver
// and the neural-network training loop are built on.
//
// Dense LU (Solve) is O(n³) and allocation-heavy by design — it is the
// readable reference implementation. The production solvers factor
// through internal/sparse, and that package's tests pin the sparse
// symbolic-reuse path against la.Solve on random systems; la is the
// ground truth the sparse kernels are validated with.
//
// Everything is float64 and allocation behaviour is explicit: functions that
// can reuse a destination take it as the first argument, mirroring the
// conventions of the standard library's copy/append.
package la

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// AddScaled sets v = v + s*w and returns v. Panics if lengths differ.
func (v Vector) AddScaled(s float64, w Vector) Vector {
	checkLen(len(v), len(w))
	for i := range v {
		v[i] += s * w[i]
	}
	return v
}

// Add sets v = v + w and returns v.
func (v Vector) Add(w Vector) Vector { return v.AddScaled(1, w) }

// Sub sets v = v - w and returns v.
func (v Vector) Sub(w Vector) Vector { return v.AddScaled(-1, w) }

// Scale sets v = s*v and returns v.
func (v Vector) Scale(s float64) Vector {
	for i := range v {
		v[i] *= s
	}
	return v
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	// Scaled to avoid overflow on extreme inputs.
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute value in v (0 for empty v).
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Norm1 returns the sum of absolute values of v.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Min returns the smallest element of v. Panics on empty input.
func (v Vector) Min() float64 {
	if len(v) == 0 {
		panic("la: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of v. Panics on empty input.
func (v Vector) Max() float64 {
	if len(v) == 0 {
		panic("la: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// HasNaN reports whether v contains a NaN or Inf entry.
func (v Vector) HasNaN() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// Concat returns the concatenation of the given vectors as a new vector.
func Concat(vs ...Vector) Vector {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := make(Vector, 0, n)
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("la: length mismatch %d != %d", a, b))
	}
}
