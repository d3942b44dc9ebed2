package sparse

import (
	"fmt"
	"sort"
)

// CSCComplex is a complex sparse matrix in compressed sparse-column form.
// It carries the bus-admittance algebra (Ybus, Yf, Yt) and the complex
// intermediate products of the AC power-flow derivative formulas.
type CSCComplex struct {
	NRows, NCols int
	ColPtr       []int
	RowIdx       []int
	Val          []complex128
}

// BuilderC accumulates complex coordinate entries; duplicates sum on ToCSC.
type BuilderC struct {
	nrows, ncols int
	rows, cols   []int
	vals         []complex128
}

// NewBuilderC returns a complex Builder for an nrows×ncols matrix.
func NewBuilderC(nrows, ncols int) *BuilderC {
	return &BuilderC{nrows: nrows, ncols: ncols}
}

// Append adds v at (i, j).
func (b *BuilderC) Append(i, j int, v complex128) {
	if i < 0 || i >= b.nrows || j < 0 || j >= b.ncols {
		panic(fmt.Sprintf("sparse: complex entry (%d,%d) outside %dx%d", i, j, b.nrows, b.ncols))
	}
	b.rows = append(b.rows, i)
	b.cols = append(b.cols, j)
	b.vals = append(b.vals, v)
}

// ToCSC compiles the builder, summing duplicate coordinates.
func (b *BuilderC) ToCSC() *CSCComplex {
	nnz := len(b.vals)
	a := &CSCComplex{NRows: b.nrows, NCols: b.ncols, ColPtr: make([]int, b.ncols+1)}
	for _, j := range b.cols {
		a.ColPtr[j+1]++
	}
	for j := 0; j < b.ncols; j++ {
		a.ColPtr[j+1] += a.ColPtr[j]
	}
	rows := make([]int, nnz)
	vals := make([]complex128, nnz)
	next := make([]int, b.ncols)
	copy(next, a.ColPtr[:b.ncols])
	for k := 0; k < nnz; k++ {
		j := b.cols[k]
		p := next[j]
		rows[p] = b.rows[k]
		vals[p] = b.vals[k]
		next[j]++
	}
	outRows := rows[:0]
	outVals := vals[:0]
	newPtr := make([]int, b.ncols+1)
	for j := 0; j < b.ncols; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		seg := colSegC{rows[lo:hi], vals[lo:hi]}
		sort.Sort(seg)
		start := len(outRows)
		for p := lo; p < hi; p++ {
			if len(outRows) > start && rows[p] == outRows[len(outRows)-1] {
				outVals[len(outVals)-1] += vals[p]
			} else {
				outRows = append(outRows, rows[p])
				outVals = append(outVals, vals[p])
			}
		}
		newPtr[j+1] = len(outRows)
	}
	a.ColPtr = newPtr
	a.RowIdx = outRows
	a.Val = outVals
	return a
}

type colSegC struct {
	rows []int
	vals []complex128
}

func (s colSegC) Len() int           { return len(s.rows) }
func (s colSegC) Less(i, j int) bool { return s.rows[i] < s.rows[j] }
func (s colSegC) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// DiagC returns a square diagonal complex matrix.
func DiagC(d []complex128) *CSCComplex {
	n := len(d)
	a := &CSCComplex{NRows: n, NCols: n, ColPtr: make([]int, n+1), RowIdx: make([]int, n), Val: make([]complex128, n)}
	for i := 0; i < n; i++ {
		a.ColPtr[i+1] = i + 1
		a.RowIdx[i] = i
		a.Val[i] = d[i]
	}
	return a
}

// MulVec returns a*x.
func (a *CSCComplex) MulVec(x []complex128) []complex128 {
	if len(x) != a.NCols {
		panic("sparse: complex MulVec dim")
	}
	y := make([]complex128, a.NRows)
	for j := 0; j < a.NCols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			y[a.RowIdx[p]] += a.Val[p] * xj
		}
	}
	return y
}

// Conj conjugates every entry in place and returns a.
func (a *CSCComplex) Conj() *CSCComplex {
	for i, v := range a.Val {
		a.Val[i] = complex(real(v), -imag(v))
	}
	return a
}

// Scale multiplies every entry by s in place and returns a.
func (a *CSCComplex) Scale(s complex128) *CSCComplex {
	for i := range a.Val {
		a.Val[i] *= s
	}
	return a
}

// DiagScaleLeft sets a = diag(d)·a in place and returns a.
func (a *CSCComplex) DiagScaleLeft(d []complex128) *CSCComplex {
	if len(d) != a.NRows {
		panic("sparse: complex DiagScaleLeft dim")
	}
	for p, i := range a.RowIdx {
		a.Val[p] *= d[i]
	}
	return a
}

// DiagScaleRight sets a = a·diag(d) in place and returns a.
func (a *CSCComplex) DiagScaleRight(d []complex128) *CSCComplex {
	if len(d) != a.NCols {
		panic("sparse: complex DiagScaleRight dim")
	}
	for j := 0; j < a.NCols; j++ {
		dj := d[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			a.Val[p] *= dj
		}
	}
	return a
}

// AddScaled returns a + s·b as a new matrix.
func (a *CSCComplex) AddScaled(s complex128, other *CSCComplex) *CSCComplex {
	if a.NRows != other.NRows || a.NCols != other.NCols {
		panic("sparse: complex AddScaled shape mismatch")
	}
	b := NewBuilderC(a.NRows, a.NCols)
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			b.Append(a.RowIdx[p], j, a.Val[p])
		}
	}
	for j := 0; j < other.NCols; j++ {
		for p := other.ColPtr[j]; p < other.ColPtr[j+1]; p++ {
			b.Append(other.RowIdx[p], j, s*other.Val[p])
		}
	}
	return b.ToCSC()
}

// AddDiag returns a + diag(d) as a new matrix (a must be square).
func (a *CSCComplex) AddDiag(d []complex128) *CSCComplex {
	return a.AddScaled(1, DiagC(d))
}

// Clone returns a deep copy of a.
func (a *CSCComplex) Clone() *CSCComplex {
	return &CSCComplex{
		NRows: a.NRows, NCols: a.NCols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    append([]complex128(nil), a.Val...),
	}
}
