package sparse

import (
	"math"
	"slices"

	"repro/internal/la"
)

// This file implements the factorization every interior-point KKT
// system goes through: a left-looking supernodal LDLᵀ of a symmetric
// matrix with diagonal pivots in a fill-reducing order. The reduced KKT
// matrix mips assembles is symmetric quasi-definite (its dual diagonal
// carries a static −δ), so every diagonal pivot order exists (Vanderbei
// 1995) and no pivot search is needed: the analysis is a pure function
// of the sparsity pattern, and the factor stores L once — about half the
// entries and flops of an LU, which stores L and U.
//
// The numeric kernel computes one column of L at a time. Column k is
// gathered from (A+Aᵀ)/2, updated by every earlier column j with
// L(k,j) ≠ 0, then scaled by its pivot. The updating columns come in supernodes:
// runs of consecutive columns with nested patterns, below(j) = {j+1} ∪
// below(j+1). With each column's rows stored ascending, the rows at or
// below k of every member of a supernode form one contiguous trailing
// segment of the same length and the same row list. So a supernode's
// whole contribution to column k is a dense rank-m update of
// contiguous slices, accumulated in place when those rows are
// consecutive, else once in a panel buffer scattered once. A width-1
// supernode is the scalar case of the same loop.

// boostPivotRel is the static pivot perturbation scale of the LDLᵀ
// kernel: a pivot that decays below boostPivotRel of its column's
// largest updated entry is replaced by ±boostPivotRel times that entry,
// bounding element growth at 1/boostPivotRel. √machine-epsilon is the
// classic static-pivoting choice (SuperLU_DIST uses √ε·‖A‖): it splits
// the 16 available digits evenly between the perturbation and the
// growth it permits. The occasional lopsided iterate (a barrier weight
// at 1e12, a multiplier-free diagonal at 1e-10) then costs a bounded
// O(boostPivotRel) perturbation of that column, absorbed by the outer
// Newton iteration.
const boostPivotRel = 1e-8

// singularRel is the collapse threshold of an LDLᵀ column: the column
// is numerically singular when the largest magnitude of its updated
// entries (pivot included) falls to singularRel times the largest entry
// of the matrix column it came from or below. LU declared a column
// singular only when it was exactly zero, but a symmetric elimination
// leaves a rounding residue of about ε·max|A(:,j)| (ε ≈ 1.1e-16) in a
// column that cancels; the static pivot boost would then scale that
// residue into a step. 1e-16 is the largest threshold that kept every
// solve of the cold corpora the LU converged; from 1e-15 on, case30
// draws are lost (PERFORMANCE.md, "One supernodal LDLᵀ").
const singularRel = 1e-16

// LDLSymbolic is the analysis of a symmetric sparsity pattern for
// LDLᵀ: the fill-reducing permutation, the elimination tree's column
// patterns of L, the supernode partition, and each column's update
// program. It is a pure function of the pattern, immutable after
// AnalyzeLDL and safe to share across goroutines.
//
// What is factored is the symmetric part (A+Aᵀ)/2 of the matrix given,
// on the union of its two triangles' patterns. A KKT matrix is symmetric
// in exact arithmetic, but its assembly leaves the two triangles a
// rounding apart; averaging them keeps the factorization as close to the
// assembled matrix as an LU of it would be (reading one triangle alone
// cost a case30 solve on the cold corpus of PERFORMANCE.md "One
// supernodal LDLᵀ").
type LDLSymbolic struct {
	n       int
	q, pinv []int // C = A(q,q); pinv[q[k]] = k
	// lp/li are the column pointers and row indices (ascending within
	// each column, in permuted coordinates) of strict L.
	lp, li []int
	// snStart[s] is the first column of supernode s; snStart[len-1] = n.
	snStart []int
	// Column k takes A's diagonal entry at gdiag[k] (-1: none), adds half
	// of each entry gpos[gptr[k]:gptr[k+1]] of A's values into the
	// accumulator rows grow[...] (its lower part: both triangles' entries
	// land there), and is then updated by the ops[opPtr[k]:opPtr[k+1]].
	gdiag      []int32
	gptr       []int
	gpos, grow []int32
	opPtr      []int
	ops        []ldlOp
	// maxPanel is the longest segment an indirect multi-column update
	// accumulates: the size of a factor's panel buffer.
	maxPanel int
	pat      pattern
}

// ldlOp is one update of a column k by a source supernode: its member
// columns c0..e (e is the supernode's last column, or k-1 when k lies
// inside it), each over its trailing ln rows — rows k and below, the
// same row list for every member — which end at lx[end] of column e.
type ldlOp struct {
	c0, e, end, ln int32
	kind           uint8
}

// Op kinds: the rows are consecutive (update the accumulator in place),
// the supernode is one column wide, or neither (accumulate the panel,
// then scatter it).
const (
	opDense uint8 = iota
	opScalar
	opPanel
)

// AnalyzeLDL computes the LDLᵀ analysis of a's pattern under ord. It
// reads no values and cannot fail.
func AnalyzeLDL(a *CSC, ord Ordering) *LDLSymbolic {
	if a.NRows != a.NCols {
		panic("sparse: AnalyzeLDL of non-square matrix")
	}
	n := a.NRows
	s := &LDLSymbolic{n: n, q: permFor(a, ord), pinv: make([]int, n), pat: patternOf(a)}
	for k, c := range s.q {
		s.pinv[c] = k
	}

	// Gather map of (A+Aᵀ)/2, and the rows of its strict lower triangle:
	// for row i, the columns k < i holding an entry (a column listed
	// twice when both triangles store the pair).
	s.gdiag = make([]int32, n)
	for k := range s.gdiag {
		s.gdiag[k] = -1
	}
	s.gptr = make([]int, n+1)
	rp := make([]int, n+1)
	for c := 0; c < n; c++ {
		for p := a.ColPtr[c]; p < a.ColPtr[c+1]; p++ {
			if i, k := s.pinv[a.RowIdx[p]], s.pinv[c]; i == k {
				s.gdiag[k] = int32(p)
			} else {
				s.gptr[min(i, k)+1]++
				rp[max(i, k)+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		s.gptr[k+1] += s.gptr[k]
		rp[k+1] += rp[k]
	}
	s.gpos = make([]int32, s.gptr[n])
	s.grow = make([]int32, s.gptr[n])
	rc := make([]int, rp[n])
	next := slices.Clone(s.gptr[:n])
	nextR := slices.Clone(rp[:n])
	for c := 0; c < n; c++ {
		for p := a.ColPtr[c]; p < a.ColPtr[c+1]; p++ {
			if i, k := s.pinv[a.RowIdx[p]], s.pinv[c]; i != k {
				i, k = max(i, k), min(i, k)
				s.gpos[next[k]], s.grow[next[k]] = int32(p), int32(i)
				next[k]++
				rc[nextR[i]] = k
				nextR[i]++
			}
		}
	}

	// Elimination tree (Liu), with path-compressed ancestors.
	parent := make([]int, n)
	anc := make([]int, n)
	for i := 0; i < n; i++ {
		parent[i], anc[i] = -1, -1
		for _, k := range rc[rp[i]:rp[i+1]] {
			for k != -1 && k < i {
				nk := anc[k]
				anc[k] = i
				if nk == -1 {
					parent[k] = i
				}
				k = nk
			}
		}
	}

	// Row i of L covers the etree paths from its entries up to i. One
	// sweep counts the columns, a second fills them; rows go in
	// ascending, so every column lists its rows ascending.
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	rowPattern := func(i int, visit func(j int)) {
		mark[i] = i
		for _, k := range rc[rp[i]:rp[i+1]] {
			for ; mark[k] != i; k = parent[k] {
				mark[k] = i
				visit(k)
			}
		}
	}
	cnt := make([]int, n)
	for i := 0; i < n; i++ {
		rowPattern(i, func(j int) { cnt[j]++ })
	}
	s.lp = make([]int, n+1)
	for j := 0; j < n; j++ {
		s.lp[j+1] = s.lp[j] + cnt[j]
	}
	s.li = make([]int, s.lp[n])
	copy(next, s.lp[:n])
	for i := range mark {
		mark[i] = -1
	}
	for i := 0; i < n; i++ {
		rowPattern(i, func(j int) {
			s.li[next[j]] = i
			next[j]++
		})
	}

	// Supernodes: j-1 extends j's run when j is its parent and its
	// column is j's plus row j — by the etree structure theorem,
	// below(j-1) \ {j} ⊆ below(j), so equal counts make the sets nest.
	for j := 0; j < n; j++ {
		if j == 0 || parent[j-1] != j || cnt[j-1] != cnt[j]+1 {
			s.snStart = append(s.snStart, j)
		}
	}
	s.snStart = append(s.snStart, n)

	// Update programs. Supernode [c0..e] with shared rows S = below(e)
	// updates each of its own columns k in (c0, e] over rows {k..e} ∪ S,
	// and every k ∈ S over the rows of S from k on. Sources are listed
	// in ascending supernode order.
	ns := len(s.snStart) - 1
	s.opPtr = make([]int, n+1)
	for sn := 0; sn < ns; sn++ {
		c0, e := s.snStart[sn], s.snStart[sn+1]-1
		for k := c0 + 1; k <= e; k++ {
			s.opPtr[k+1]++
		}
		for _, k := range s.li[s.lp[e]:s.lp[e+1]] {
			s.opPtr[k+1]++
		}
	}
	for k := 0; k < n; k++ {
		s.opPtr[k+1] += s.opPtr[k]
	}
	s.ops = make([]ldlOp, s.opPtr[n])
	copy(next, s.opPtr[:n])
	add := func(k, c0, e, ln int) {
		end := s.lp[e+1]
		op := ldlOp{c0: int32(c0), e: int32(e), end: int32(end), ln: int32(ln), kind: opPanel}
		switch rows := s.li[end-ln : end]; {
		case rows[ln-1]-rows[0] == ln-1:
			op.kind = opDense
		case c0 == e:
			op.kind = opScalar
		default:
			s.maxPanel = max(s.maxPanel, ln)
		}
		s.ops[next[k]] = op
		next[k]++
	}
	for sn := 0; sn < ns; sn++ {
		c0, e := s.snStart[sn], s.snStart[sn+1]-1
		shared := s.li[s.lp[e]:s.lp[e+1]]
		for k := c0 + 1; k <= e; k++ {
			add(k, c0, k-1, e-k+1+len(shared))
		}
		for t, k := range shared {
			add(k, c0, e, len(shared)-t)
		}
	}
	return s
}

// N returns the matrix dimension the analysis was made for.
func (s *LDLSymbolic) N() int { return s.n }

// NNZ returns the stored entries of a factorization: strict L plus the
// n pivots of D.
func (s *LDLSymbolic) NNZ() int { return len(s.li) + s.n }

// PatternNNZ returns the stored entries of the analyzed matrix pattern.
func (s *LDLSymbolic) PatternNNZ() int { return len(s.pat.rowIdx) }

// PatternMatches reports whether a has exactly the analyzed pattern.
func (s *LDLSymbolic) PatternMatches(a *CSC) bool { return s.pat.matches(a) }

// Supernodes returns the number of supernodes and the number of columns
// inside those at least two columns wide.
func (s *LDLSymbolic) Supernodes() (count, panelCols int) {
	count = len(s.snStart) - 1
	for sn := 0; sn < count; sn++ {
		if w := s.snStart[sn+1] - s.snStart[sn]; w > 1 {
			panelCols += w
		}
	}
	return count, panelCols
}

// LDLFactors holds a numeric factorization S(q,q) = L·D·Lᵀ of the
// symmetric part S = (A+Aᵀ)/2 of a matrix A, on an LDLSymbolic, with
// the workspace that computes it. A zero value is
// ready for FactorInto; it keeps its storage across calls, so
// refactoring on the same analysis — or on one no larger — allocates
// nothing.
type LDLFactors struct {
	sym *LDLSymbolic
	lx  []float64 // strict L, aligned with sym.li
	d   []float64 // the pivots
	x   []float64 // dense column accumulator, all-zero between calls
	tmp []float64 // panel accumulator
}

func resize(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

func (f *LDLFactors) bind(s *LDLSymbolic) {
	if f.sym == s {
		return
	}
	f.sym = s
	f.lx = resize(f.lx, len(s.li))
	f.d = resize(f.d, s.n)
	f.x = resize(f.x, s.n)
	clear(f.x)
	f.tmp = resize(f.tmp, s.maxPanel)
}

// FactorInto computes the LDLᵀ factorization of a into f. Pivots stay on
// the diagonal: a pivot below boostPivotRel of its column's largest
// updated entry is raised to ±boostPivotRel times that entry (static
// pivot perturbation, bounding element growth), and a column whose
// updated entries all collapse below singularRel of its matrix column
// returns ErrSingular. ErrPatternChanged when a does not have the
// analyzed pattern. After an error f holds no factorization but stays
// usable. The factors are a pure function of the pattern and values.
func (s *LDLSymbolic) FactorInto(f *LDLFactors, a *CSC) error {
	if !s.pat.matches(a) {
		return ErrPatternChanged
	}
	return s.factor(f, a)
}

// factor is FactorInto on a matrix already known to have the analyzed
// pattern.
func (s *LDLSymbolic) factor(f *LDLFactors, a *CSC) error {
	f.bind(s)
	x, lx, d, li, lp := f.x, f.lx, f.d, s.li, s.lp
	for k := 0; k < s.n; k++ {
		colMax := 0.0
		for _, v := range a.Val[a.ColPtr[s.q[k]]:a.ColPtr[s.q[k]+1]] {
			if t := math.Abs(v); t > colMax {
				colMax = t
			}
		}
		if p := s.gdiag[k]; p >= 0 {
			x[k] = a.Val[p]
		}
		for g := s.gptr[k]; g < s.gptr[k+1]; g++ {
			x[s.grow[g]] += 0.5 * a.Val[s.gpos[g]]
		}
		for _, op := range s.ops[s.opPtr[k]:s.opPtr[k+1]] {
			c0, e, end, ln := int(op.c0), int(op.e), int(op.end), int(op.ln)
			rows := li[end-ln : end]
			switch op.kind {
			case opDense:
				panelUpdate(x[rows[0]:rows[0]+ln], lx, lp, d, c0, e)
			case opScalar:
				seg := lx[end-ln : end]
				u := -d[e] * seg[0]
				seg = seg[:len(rows)]
				for t, r := range rows {
					x[r] += seg[t] * u
				}
			default:
				tmp := f.tmp[:ln]
				clear(tmp)
				panelUpdate(tmp, lx, lp, d, c0, e)
				tmp = tmp[:len(rows)]
				for t, r := range rows {
					x[r] += tmp[t]
				}
			}
		}
		dk := x[k]
		x[k] = 0
		rows := li[lp[k]:lp[k+1]]
		amax := math.Abs(dk)
		for _, r := range rows {
			if t := math.Abs(x[r]); t > amax {
				amax = t
			}
		}
		if math.IsNaN(dk) || !(amax > singularRel*colMax) {
			for _, r := range rows {
				x[r] = 0
			}
			return ErrSingular
		}
		if math.Abs(dk) < boostPivotRel*amax {
			dk = math.Copysign(boostPivotRel*amax, dk)
		}
		d[k] = dk
		inv := 1 / dk
		lk := lx[lp[k]:lp[k+1]]
		lk = lk[:len(rows)]
		for t, r := range rows {
			lk[t] = x[r] * inv
			x[r] = 0
		}
	}
	return nil
}

// NegativePivots returns the number of negative pivots in D. By
// Sylvester's law of inertia it is the number of negative eigenvalues of
// the factored matrix: the static pivot boost changes a pivot's
// magnitude, never its sign.
func (f *LDLFactors) NegativePivots() int {
	neg := 0
	for _, v := range f.d {
		if v < 0 {
			neg++
		}
	}
	return neg
}

// panelUpdate adds −Σ L(k,j)·d_j·L(rows,j) over the member columns j =
// j0..e of one supernode into acc, which is aligned with the trailing
// len(acc) rows of every member column (the first of them row k). Four
// members per pass: acc is read and written once per four L-segment
// streams.
func panelUpdate(acc, lx []float64, lp []int, d []float64, j, e int) {
	ln := len(acc)
	for ; j+3 <= e; j += 4 {
		s0 := lx[lp[j+1]-ln : lp[j+1]]
		s1 := lx[lp[j+2]-ln : lp[j+2]]
		s2 := lx[lp[j+3]-ln : lp[j+3]]
		s3 := lx[lp[j+4]-ln : lp[j+4]]
		u0, u1, u2, u3 := -d[j]*s0[0], -d[j+1]*s1[0], -d[j+2]*s2[0], -d[j+3]*s3[0]
		s0, s1, s2, s3 = s0[:len(acc)], s1[:len(acc)], s2[:len(acc)], s3[:len(acc)]
		for t := range acc {
			acc[t] += s0[t]*u0 + s1[t]*u1 + s2[t]*u2 + s3[t]*u3
		}
	}
	if j+1 <= e {
		s0 := lx[lp[j+1]-ln : lp[j+1]]
		s1 := lx[lp[j+2]-ln : lp[j+2]]
		u0, u1 := -d[j]*s0[0], -d[j+1]*s1[0]
		s0, s1 = s0[:len(acc)], s1[:len(acc)]
		for t := range acc {
			acc[t] += s0[t]*u0 + s1[t]*u1
		}
		j += 2
	}
	if j == e {
		s0 := lx[lp[j+1]-ln : lp[j+1]]
		u0 := -d[j] * s0[0]
		s0 = s0[:len(acc)]
		for t := range acc {
			acc[t] += s0[t] * u0
		}
	}
}

// Solve solves A·x = b with the factorization. b is not modified.
func (f *LDLFactors) Solve(b la.Vector) la.Vector {
	x := make(la.Vector, len(b))
	f.SolveInto(x, b, make(la.Vector, len(b)))
	return x
}

// SolveInto solves A·x = b into dst without allocating. work is an
// n-length scratch vector; dst, b and work must not alias each other.
// b is not modified.
func (f *LDLFactors) SolveInto(dst, b, work la.Vector) {
	s := f.sym
	n := s.n
	if len(b) != n || len(dst) != n || len(work) != n {
		panic("sparse: LDL SolveInto length mismatch")
	}
	y := work
	for k, c := range s.q {
		y[k] = b[c]
	}
	lp, li, lx := s.lp, s.li, f.lx
	for j := 0; j < n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		rows := li[lp[j]:lp[j+1]]
		vals := lx[lp[j]:lp[j+1]]
		vals = vals[:len(rows)]
		for t, r := range rows {
			y[r] -= vals[t] * yj
		}
	}
	for k := range y {
		y[k] /= f.d[k]
	}
	for j := n - 1; j >= 0; j-- {
		acc := y[j]
		rows := li[lp[j]:lp[j+1]]
		vals := lx[lp[j]:lp[j+1]]
		vals = vals[:len(rows)]
		for t, r := range rows {
			acc -= vals[t] * y[r]
		}
		y[j] = acc
	}
	for k, c := range s.q {
		dst[c] = y[k]
	}
}
