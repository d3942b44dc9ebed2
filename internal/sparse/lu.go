package sparse

import (
	"errors"
	"math"

	"repro/internal/la"
)

// ErrSingular is returned when sparse LU meets a zero pivot column.
var ErrSingular = errors.New("sparse: matrix is singular to working precision")

// LUFactors holds a sparse LU factorization P·A·Q = L·U produced by
// FactorizeOpts, where P comes from partial pivoting and Q from the
// fill-reducing ordering.
type LUFactors struct {
	n          int
	lp, up     []int // column pointers for L and U
	li, ui     []int // row indices (pivot coordinates)
	lx, ux     []float64
	pinv       []int // pinv[origRow] = pivot step
	q          []int // column permutation: column k of PAQ is A[:, q[k]]
	lnzTotal   int
	pivotTolND float64
}

// FactorizeOpts computes a sparse left-looking (Gilbert–Peierls) LU
// factorization with threshold partial pivoting. tol in (0,1] trades
// sparsity for stability: 1.0 always picks the largest-magnitude candidate,
// smaller values prefer keeping the diagonal pivot when it is within tol of
// the largest.
func FactorizeOpts(a *CSC, ord Ordering, tol float64) (*LUFactors, error) {
	if a.NRows != a.NCols {
		panic("sparse: Factorize of non-square matrix")
	}
	return FactorizePerm(a, permFor(a, ord), tol)
}

// FactorizePerm factorizes with an explicit column pre-ordering q (a
// permutation of 0..n-1, as produced by permFor or held by a Symbolic),
// skipping the ordering computation. Same pivoting semantics as
// FactorizeOpts.
func FactorizePerm(a *CSC, q []int, tol float64) (*LUFactors, error) {
	if a.NRows != a.NCols {
		panic("sparse: Factorize of non-square matrix")
	}
	if len(q) != a.NCols {
		panic("sparse: ordering length mismatch")
	}
	if tol <= 0 || tol > 1 {
		panic("sparse: pivot tolerance must be in (0,1]")
	}
	n := a.NRows
	f := &LUFactors{n: n, pivotTolND: tol}
	f.q = q
	f.pinv = make([]int, n)
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	// Growable L and U storage; start with a guess of 4x the input nnz.
	cap0 := 4*a.NNZ() + n
	f.li = make([]int, 0, cap0)
	f.lx = make([]float64, 0, cap0)
	f.ui = make([]int, 0, cap0)
	f.ux = make([]float64, 0, cap0)
	f.lp = make([]int, n+1)
	f.up = make([]int, n+1)

	x := make([]float64, n)      // dense accumulator
	xi := make([]int, n)         // reach stack (topological order at xi[top:])
	pstack := make([]int, n)     // DFS position stack
	marked := make([]bool, n)    // DFS visited marks
	visited := make([]int, 0, n) // marks to clear after each column

	for k := 0; k < n; k++ {
		col := f.q[k]
		top := f.reach(a, col, xi, pstack, marked, &visited)
		// Clear and scatter the column of A.
		for p := top; p < n; p++ {
			x[xi[p]] = 0
		}
		for p := a.ColPtr[col]; p < a.ColPtr[col+1]; p++ {
			x[a.RowIdx[p]] = a.Val[p]
		}
		// Sparse triangular solve x = L \ A(:,col), in topological order.
		for px := top; px < n; px++ {
			j := xi[px]
			jcol := f.pinv[j]
			if jcol < 0 {
				continue // row j not yet pivotal: no elimination from it
			}
			xj := x[j]
			// Skip the unit diagonal (first entry of L's column jcol).
			for p := f.lp[jcol] + 1; p < f.lp[jcol+1]; p++ {
				x[f.li[p]] -= f.lx[p] * xj
			}
		}
		// Pivot search among not-yet-pivotal rows.
		ipiv, amax := -1, -1.0
		for p := top; p < n; p++ {
			i := xi[p]
			if f.pinv[i] < 0 {
				if t := math.Abs(x[i]); t > amax {
					amax, ipiv = t, i
				}
			} else {
				f.ui = append(f.ui, f.pinv[i])
				f.ux = append(f.ux, x[i])
			}
		}
		if ipiv == -1 || amax <= 0 || math.IsNaN(amax) {
			return nil, ErrSingular
		}
		// Prefer the diagonal of the permuted matrix when acceptable.
		if f.pinv[col] < 0 && math.Abs(x[col]) >= amax*tol {
			ipiv = col
		}
		pivot := x[ipiv]
		f.ui = append(f.ui, k)
		f.ux = append(f.ux, pivot)
		f.up[k+1] = len(f.ui)
		f.pinv[ipiv] = k
		// L column: unit diagonal first, then below-diagonal entries.
		f.li = append(f.li, ipiv)
		f.lx = append(f.lx, 1)
		for p := top; p < n; p++ {
			i := xi[p]
			if f.pinv[i] < 0 {
				f.li = append(f.li, i)
				f.lx = append(f.lx, x[i]/pivot)
			}
			x[i] = 0
		}
		f.lp[k+1] = len(f.li)
		// Clear DFS marks for the next column.
		for _, v := range visited {
			marked[v] = false
		}
		visited = visited[:0]
	}
	// Map L's row indices from original rows to pivot coordinates.
	for p := range f.li {
		f.li[p] = f.pinv[f.li[p]]
	}
	f.lnzTotal = len(f.li) + len(f.ui)
	return f, nil
}

// reach performs the symbolic step: a DFS over the columns of L from the
// pattern of A(:,col), leaving the reachable set in topological order at
// xi[top:]. Returns top.
func (f *LUFactors) reach(a *CSC, col int, xi, pstack []int, marked []bool, visited *[]int) int {
	n := f.n
	top := n
	for p := a.ColPtr[col]; p < a.ColPtr[col+1]; p++ {
		if !marked[a.RowIdx[p]] {
			top = f.dfs(a.RowIdx[p], top, xi, pstack, marked, visited)
		}
	}
	return top
}

func (f *LUFactors) dfs(start, top int, xi, pstack []int, marked []bool, visited *[]int) int {
	head := 0
	xi[0] = start
	for head >= 0 {
		j := xi[head]
		if !marked[j] {
			marked[j] = true
			*visited = append(*visited, j)
			if jcol := f.pinv[j]; jcol >= 0 {
				pstack[head] = f.lp[jcol] + 1 // skip unit diagonal
			} else {
				pstack[head] = 0 // non-pivotal node: no children
			}
		}
		done := true
		if jcol := f.pinv[j]; jcol >= 0 {
			for p := pstack[head]; p < f.lp[jcol+1]; p++ {
				i := f.li[p]
				if marked[i] {
					continue
				}
				pstack[head] = p + 1
				head++
				xi[head] = i
				done = false
				break
			}
		}
		if done {
			head--
			top--
			xi[top] = j
		}
	}
	return top
}

// Solve solves A·x = b with the factorization. b is not modified.
func (f *LUFactors) Solve(b la.Vector) la.Vector {
	x := make(la.Vector, f.n)
	f.SolveInto(x, b, make(la.Vector, f.n))
	return x
}

// SolveInto solves A·x = b into dst without allocating. work is an
// n-length scratch vector; dst, b and work must not alias each other.
// b is not modified.
func (f *LUFactors) SolveInto(dst, b, work la.Vector) {
	if len(b) != f.n || len(dst) != f.n || len(work) != f.n {
		panic("sparse: LU SolveInto length mismatch")
	}
	n := f.n
	y := work
	// Apply row permutation: y[pinv[i]] = b[i].
	for i := 0; i < n; i++ {
		y[f.pinv[i]] = b[i]
	}
	// Forward solve L·z = y (unit diagonal first entry of each column).
	for k := 0; k < n; k++ {
		yk := y[k]
		if yk == 0 {
			continue
		}
		for p := f.lp[k] + 1; p < f.lp[k+1]; p++ {
			y[f.li[p]] -= f.lx[p] * yk
		}
	}
	// Back solve U·w = z; the diagonal is the last entry of each column.
	for k := n - 1; k >= 0; k-- {
		d := f.up[k+1] - 1
		y[k] /= f.ux[d]
		yk := y[k]
		if yk == 0 {
			continue
		}
		for p := f.up[k]; p < d; p++ {
			y[f.ui[p]] -= f.ux[p] * yk
		}
	}
	// Undo column permutation: x[q[k]] = w[k].
	for k := 0; k < n; k++ {
		dst[f.q[k]] = y[k]
	}
}

// NNZ returns the total stored entries of L and U.
func (f *LUFactors) NNZ() int { return f.lnzTotal }
