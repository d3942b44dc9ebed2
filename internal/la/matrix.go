package la

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("la: invalid matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// AddScaledMat sets m = m + s*b and returns m.
func (m *Matrix) AddScaledMat(s float64, b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("la: AddScaledMat shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += s * b.Data[i]
	}
	return m
}

// Scale multiplies every entry of m by s and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// LU is an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	n    int
	lu   []float64 // combined L (unit lower) and U, row-major
	piv  []int     // row permutation
	sign int       // permutation sign, the determinant's
}

// ErrSingular is returned when a factorization meets an (effectively) zero
// pivot and the system cannot be solved reliably.
var ErrSingular = fmt.Errorf("la: matrix is singular to working precision")

// Factorize computes the LU factorization of a square matrix a with partial
// pivoting. a is not modified.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("la: Factorize of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1}
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Pivot: largest |entry| in column k at/below the diagonal.
		p, pmax := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > pmax {
				p, pmax = i, a
			}
		}
		if pmax == 0 || math.IsNaN(pmax) {
			return nil, ErrSingular
		}
		if p != k {
			rp, rk := lu[p*n:(p+1)*n], lu[k*n:(k+1)*n]
			for j := range rp {
				rp[j], rk[j] = rk[j], rp[j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
			f.sign = -f.sign
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			ri, rk := lu[i*n:(i+1)*n], lu[k*n:(k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return f, nil
}

// Solve solves A*x = b using the factorization; it returns a new vector.
func (f *LU) Solve(b Vector) Vector {
	checkLen(f.n, len(b))
	n := f.n
	x := make(Vector, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	lu := f.lu
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := lu[i*n : i*n+i]
		s := x[i]
		for j, l := range row {
			s -= l * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// Solve solves the square dense system A*x = b.
func Solve(a *Matrix, b Vector) (Vector, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
