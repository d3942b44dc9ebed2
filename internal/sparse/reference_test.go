package sparse

// Dense and element-wise views of CSC matrices, and the CSC-input
// factorization entry, for the package's tests: the references the
// kernel is compared against, which no production path calls.

import (
	"fmt"
	"sort"

	"repro/internal/la"
)

// Identity returns the n×n identity in CSC form.
func Identity(n int) *CSC {
	a := &CSC{NRows: n, NCols: n, ColPtr: make([]int, n+1), RowIdx: make([]int, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		a.ColPtr[i+1] = i + 1
		a.RowIdx[i] = i
		a.Val[i] = 1
	}
	return a
}

// MulVec returns a*x.
func (a *CSC) MulVec(x la.Vector) la.Vector {
	if len(x) != a.NCols {
		panic(fmt.Sprintf("sparse: MulVec dims %dx%d · %d", a.NRows, a.NCols, len(x)))
	}
	y := make(la.Vector, a.NRows)
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

// T returns the transpose as a new CSC matrix.
func (a *CSC) T() *CSC {
	b := NewBuilder(a.NCols, a.NRows)
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			b.Append(j, a.RowIdx[p], a.Val[p])
		}
	}
	return b.ToCSC()
}

// At returns element (i, j); O(log nnz(col j)).
func (a *CSC) At(i, j int) float64 {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	seg := a.RowIdx[lo:hi]
	k := sort.SearchInts(seg, i)
	if k < len(seg) && seg[k] == i {
		return a.Val[lo+k]
	}
	return 0
}

// At returns element (i, j).
func (a *CSCComplex) At(i, j int) complex128 {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	seg := a.RowIdx[lo:hi]
	k := sort.SearchInts(seg, i)
	if k < len(seg) && seg[k] == i {
		return a.Val[lo+k]
	}
	return 0
}

// ToDense expands a into a dense matrix.
func (a *CSC) ToDense() *la.Matrix {
	m := la.NewMatrix(a.NRows, a.NCols)
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			m.Data[a.RowIdx[p]*m.Cols+j] += a.Val[p]
		}
	}
	return m
}

// Clone returns a deep copy of a.
func (a *CSC) Clone() *CSC {
	c := &CSC{
		NRows: a.NRows, NCols: a.NCols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return c
}

// FactorizeInto is FactorizePacked of the symmetric part of a, loaded
// into the packed layout of its Analysis as FactorInto loads it.
func (h *CacheHandle) FactorizeInto(slot *FactorSlot, a *CSC) (*LDLFactors, error) {
	sym := h.Analysis(a)
	return h.FactorizePacked(slot, sym, slot.f.load(sym, a))
}

// solve solves A·x = b with the factorization into a new vector.
func solve(f *LDLFactors, b la.Vector) la.Vector {
	x := make(la.Vector, len(b))
	f.SolveInto(x, b, make(la.Vector, len(b)))
	return x
}
