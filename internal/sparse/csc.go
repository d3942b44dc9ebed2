// Package sparse implements the compressed sparse-column matrices and the
// sparse factorizations that back the power-grid admittance algebra and
// the interior-point KKT solves in Smart-PGSim.
//
// Real matrices are CSC (compressed sparse column); complex matrices mirror
// the same layout. All constructors go through a coordinate (triplet)
// Builder so duplicate entries sum, which makes assembling Jacobians,
// Hessians and admittance matrices a sequence of Append calls.
//
// One factorization, split into a symbolic and a numeric phase for the
// hot path that factors many matrices of one sparsity pattern: a
// left-looking supernodal LDLᵀ with diagonal pivots for every symmetric
// quasi-definite KKT system of the interior point, under exact minimum
// degree. AnalyzeLDL is a pure function of the pattern,
// LDLSymbolic.FactorPacked the numeric half, on the matrix's lower
// triangle stamped into the factor's packed layout (FactorInto loads a
// CSC matrix into it). SymbolicCache holds the one
// analysis of a grid's KKT systems and shares it across every solve of
// the grid, concurrent ones included, without coupling their numerics.
//
// DESIGN.md §7 documents the design, PERFORMANCE.md the measured effect.
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/la"
)

// CSC is a real sparse matrix in compressed sparse-column form.
type CSC struct {
	NRows, NCols int
	ColPtr       []int     // len NCols+1
	RowIdx       []int     // len nnz, sorted within each column
	Val          []float64 // len nnz
}

// Builder accumulates coordinate-form entries; duplicates are summed when
// the matrix is compiled with ToCSC.
type Builder struct {
	nrows, ncols int
	rows, cols   []int
	vals         []float64
}

// NewBuilder returns a Builder for an nrows×ncols matrix.
func NewBuilder(nrows, ncols int) *Builder {
	return &Builder{nrows: nrows, ncols: ncols}
}

// Append adds v at (i, j). Zero values are kept (callers may rely on the
// pattern); they are cheap and deduplicated structurally.
func (b *Builder) Append(i, j int, v float64) {
	if i < 0 || i >= b.nrows || j < 0 || j >= b.ncols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d", i, j, b.nrows, b.ncols))
	}
	b.rows = append(b.rows, i)
	b.cols = append(b.cols, j)
	b.vals = append(b.vals, v)
}

// AppendCSC copies src, scaled by s, into the builder at row/col offsets.
// It is the primitive for assembling block matrices (KKT systems).
func (b *Builder) AppendCSC(rowOff, colOff int, s float64, src *CSC) {
	for j := 0; j < src.NCols; j++ {
		for p := src.ColPtr[j]; p < src.ColPtr[j+1]; p++ {
			b.Append(rowOff+src.RowIdx[p], colOff+j, s*src.Val[p])
		}
	}
}

// ToCSC compiles the builder into CSC form, summing duplicates.
func (b *Builder) ToCSC() *CSC {
	nnz := len(b.vals)
	a := &CSC{NRows: b.nrows, NCols: b.ncols, ColPtr: make([]int, b.ncols+1)}
	// Count entries per column.
	for _, j := range b.cols {
		a.ColPtr[j+1]++
	}
	for j := 0; j < b.ncols; j++ {
		a.ColPtr[j+1] += a.ColPtr[j]
	}
	rows := make([]int, nnz)
	vals := make([]float64, nnz)
	next := make([]int, b.ncols)
	copy(next, a.ColPtr[:b.ncols])
	for k := 0; k < nnz; k++ {
		j := b.cols[k]
		p := next[j]
		rows[p] = b.rows[k]
		vals[p] = b.vals[k]
		next[j]++
	}
	// Sort rows within each column (stably, so duplicates sum in append
	// order — matching a CompileSlots stamp) and sum duplicates.
	outRows := rows[:0]
	outVals := vals[:0]
	colStart := 0
	newPtr := make([]int, b.ncols+1)
	for j := 0; j < b.ncols; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		sortColSeg(rows[lo:hi], vals[lo:hi])
		for p := lo; p < hi; p++ {
			if p > lo && rows[p] == outRows[len(outRows)-1] && len(outRows) > colStart {
				outVals[len(outVals)-1] += vals[p]
			} else {
				outRows = append(outRows, rows[p])
				outVals = append(outVals, vals[p])
			}
		}
		newPtr[j+1] = len(outRows)
		colStart = len(outRows)
	}
	a.ColPtr = newPtr
	a.RowIdx = outRows
	a.Val = outVals
	return a
}

type colSeg struct {
	rows []int
	vals []float64
}

func (s colSeg) Len() int           { return len(s.rows) }
func (s colSeg) Less(i, j int) bool { return s.rows[i] < s.rows[j] }
func (s colSeg) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// sortColSeg stably sorts one column segment by row. Typical Jacobian
// and KKT columns hold a handful of entries, so a direct insertion sort
// (stable by construction) beats the interface-based sort.Sort that used
// to dominate assembly profiles; long segments fall back to sort.Stable.
func sortColSeg(rows []int, vals []float64) {
	if len(rows) <= 32 {
		for t := 1; t < len(rows); t++ {
			r, v := rows[t], vals[t]
			u := t - 1
			for u >= 0 && rows[u] > r {
				rows[u+1], vals[u+1] = rows[u], vals[u]
				u--
			}
			rows[u+1], vals[u+1] = r, v
		}
		return
	}
	sort.Stable(colSeg{rows, vals})
}

// MulVecInto computes dst = a·x without allocating. dst must have
// length NRows and must not alias x.
func (a *CSC) MulVecInto(dst, x la.Vector) {
	if len(x) != a.NCols || len(dst) != a.NRows {
		panic(fmt.Sprintf("sparse: MulVecInto dims %dx%d · %d -> %d", a.NRows, a.NCols, len(x), len(dst)))
	}
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < a.NCols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			dst[a.RowIdx[p]] += a.Val[p] * xj
		}
	}
}

// MulVecT returns aᵀ*x.
func (a *CSC) MulVecT(x la.Vector) la.Vector {
	if len(x) != a.NRows {
		panic(fmt.Sprintf("sparse: MulVecT dims %dx%d · %d", a.NRows, a.NCols, len(x)))
	}
	y := make(la.Vector, a.NCols)
	for j := 0; j < a.NCols; j++ {
		var s float64
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			s += a.Val[p] * x[a.RowIdx[p]]
		}
		y[j] = s
	}
	return y
}

// MulVecTInto computes dst = aᵀ·x without allocating. dst must have
// length NCols and must not alias x.
func (a *CSC) MulVecTInto(dst, x la.Vector) {
	if len(x) != a.NRows || len(dst) != a.NCols {
		panic(fmt.Sprintf("sparse: MulVecTInto dims %dx%d · %d -> %d", a.NRows, a.NCols, len(x), len(dst)))
	}
	for j := 0; j < a.NCols; j++ {
		var s float64
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			s += a.Val[p] * x[a.RowIdx[p]]
		}
		dst[j] = s
	}
}
