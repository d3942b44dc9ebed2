package sparse

import (
	"errors"
	"math"
	"slices"
	"sync"

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
// Columns come in supernodes: runs of consecutive columns with nested
// patterns, below(j) = {j+1} ∪ below(j+1). With each column's rows
// stored ascending, a supernode T = [f..l] has one row list R_T = {f..l}
// ∪ below(l), and column k of T holds the rows of R_T from k on. The
// numeric kernel factors one destination supernode at a time (the
// supernode–supernode update of Ng & Peyton 1993): T's columns are
// copied into a dense column-major block from the packed matrix, which
// is stored in the blocks' own layout (see LDLSymbolic), every earlier
// source supernode with rows in T is applied once to every column of T
// it reaches — two target columns per pass, so each loaded L segment
// feeds both — and T's own columns are then finished left-looking, with
// the same pairing. A source's rows at or below T's first column are one
// trailing segment of each of its member columns, mapped into R_T by a
// relative index the analysis records.
//
// Every entry keeps the operation sequence of a column-at-a-time kernel
// (the tests' reference, factorColumns), so the factors do not depend on
// the blocking: sources in ascending order, each member group of
// panelUpdate in turn, and per (source, target column) one of three
// accumulations — in place when the rows the source updates there are
// consecutive, directly when the source is one column wide, else through
// a zeroed buffer added once.

// ErrSingular is returned when a factorization meets a numerically
// singular pivot column (see singularRel).
var ErrSingular = errors.New("sparse: matrix is singular to working precision")

// ErrPatternChanged is returned by FactorInto when the matrix does not
// have the sparsity pattern its analysis was made for.
var ErrPatternChanged = errors.New("sparse: matrix pattern differs from the analyzed pattern")

// boostPivotRel is the static pivot perturbation scale of the LDLᵀ
// kernel: a pivot that decays below boostPivotRel of its column's
// largest updated entry is replaced by ±boostPivotRel times that entry,
// bounding element growth at 1/boostPivotRel. √machine-epsilon is the
// classic static-pivoting choice (SuperLU_DIST uses √ε·‖A‖): it splits
// the 16 available digits evenly between the perturbation and the
// growth it permits. The boost is not a rare safety net: it fires in
// every interior-point factorization, and it is the regularization
// actually applied to a dual pivot eliminated at mips' static −δ, which
// it lifts to −boostPivotRel·max|column| wherever that column holds an
// entry above 1. It is load-bearing: without it, cold case14 N-2
// converges 153 of its 163 connected branch pairs instead of 160, six
// of them collapsing on their first factorization (PERFORMANCE.md, "The
// static pivot boost stays").
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
// patterns of L, the supernode partition, and each supernode's update
// program. It is a pure function of the pattern, immutable after
// AnalyzeLDL and safe to share across goroutines.
//
// What is factored is an exactly symmetric matrix, given by the values
// of its lower triangle in the packed layout of the factor: column k of
// C = A(q,q), from its diagonal down over the rows of L's column k, at
// offsets lp[k]+k .. lp[k+1]+k, the fill positions holding zeros. A
// supernode's columns are then one contiguous segment, and the segment
// is its block: column jj (0-based within the supernode) at
// blockBase(jj, nr)+pos for the positions pos = jj..nr-1 of its row
// list, nr long — the lower trapezoid, packed column by column. Slots
// maps a matrix's entries to their packed offsets; a caller that stamps
// the values there (mips stamps each symmetric pair of its KKT matrix
// once) hands the factorization its input without a gather. FactorInto
// loads a CSC matrix into the layout, as its symmetric part (A+Aᵀ)/2.
type LDLSymbolic struct {
	n       int
	q, pinv []int // C = A(q,q); pinv[q[k]] = k
	// lp/li are the column pointers and row indices (ascending within
	// each column, in permuted coordinates) of strict L.
	lp, li []int
	// snStart[s] is the first column of supernode s; snStart[len-1] = n.
	snStart []int
	// rowSlot[rowPtr[k]:rowPtr[k+1]] are the packed slots of row k's
	// entries left of the diagonal, the half of a symmetric column the
	// collapse test's scan finds outside the packed column.
	rowPtr  []int
	rowSlot []int32
	// upd[updPtr[t]:updPtr[t+1]] is supernode t's update program: its
	// sources in ascending supernode order.
	updPtr []int
	upd    []ldlUpdate
	// rel holds the update programs' relative indices into their
	// destinations' row lists.
	rel []int32
	// maxBlock and maxRows are the largest block and row list of a
	// supernode: the sizes of a factor's workspace.
	maxBlock, maxRows int
	pat               pattern
	// loadSlots are the slots of pat's entries, made by the first
	// FactorInto.
	loadOnce  sync.Once
	loadSlots []int32
}

// ldlUpdate is one source supernode's update of a destination T: its
// member columns c0..e, each over its trailing ln rows — the source's
// rows at or below T's first column, one row list for every member,
// whose positions in T's row list are rel[rel:rel+ln]. The first m of
// those rows are the columns of T the source reaches; target i updates
// rows i..ln-1, which are consecutive, so accumulate in place, for every
// i ≥ dense.
type ldlUpdate struct {
	c0, e, ln, m, dense, rel int32
}

// negZero is −0, the additive identity: −0 + x is x for every x, where
// +0 + x turns x = −0 into +0.
var negZero = math.Copysign(0, -1)

// blockBase is the offset of column jj's position 0 in the packed block
// of a supernode with an nr-row list.
func blockBase(jj, nr int) int { return jj*nr - jj*(jj+1)/2 }

// AnalyzeLDL computes the LDLᵀ analysis of a's pattern under the exact
// minimum-degree ordering. It reads no values and cannot fail.
func AnalyzeLDL(a *CSC) *LDLSymbolic {
	if a.NRows != a.NCols {
		panic("sparse: AnalyzeLDL of non-square matrix")
	}
	return analyzeLDLPerm(a, minDegreeOrder(a))
}

// analyzeLDLPerm is AnalyzeLDL under the elimination order q, which
// lists a's columns in the order they are eliminated.
func analyzeLDLPerm(a *CSC, q []int) *LDLSymbolic {
	n := a.NRows
	s := &LDLSymbolic{n: n, q: q, pinv: make([]int, n), pat: patternOf(a)}
	for k, c := range s.q {
		s.pinv[c] = k
	}

	// The rows of the strict lower triangle of A+Aᵀ: for row i, the
	// columns k < i holding an entry (a column listed twice when both
	// triangles store the pair).
	rp := make([]int, n+1)
	for c := 0; c < n; c++ {
		for p := a.ColPtr[c]; p < a.ColPtr[c+1]; p++ {
			if i, k := s.pinv[a.RowIdx[p]], s.pinv[c]; i != k {
				rp[max(i, k)+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		rp[k+1] += rp[k]
	}
	rc := make([]int, rp[n])
	next := slices.Clone(rp[:n])
	for c := 0; c < n; c++ {
		for p := a.ColPtr[c]; p < a.ColPtr[c+1]; p++ {
			if i, k := s.pinv[a.RowIdx[p]], s.pinv[c]; i != k {
				rc[next[max(i, k)]] = min(i, k)
				next[max(i, k)]++
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

	s.rowPtr, s.rowSlot = rp, make([]int32, len(rc))
	for i := 0; i < n; i++ {
		for p := rp[i]; p < rp[i+1]; p++ {
			k := rc[p]
			t, _ := slices.BinarySearch(s.li[s.lp[k]:s.lp[k+1]], i)
			s.rowSlot[p] = int32(s.lp[k] + k + 1 + t)
		}
	}

	// Supernodes: j-1 extends j's run when j is its parent and its
	// column is j's plus row j — by the etree structure theorem,
	// below(j-1) \ {j} ⊆ below(j), so equal counts make the sets nest.
	// snOf (reusing mark) is each column's supernode.
	for j := 0; j < n; j++ {
		if j == 0 || parent[j-1] != j || cnt[j-1] != cnt[j]+1 {
			s.snStart = append(s.snStart, j)
		}
	}
	s.snStart = append(s.snStart, n)
	ns := len(s.snStart) - 1
	snOf := mark
	for sn := 0; sn < ns; sn++ {
		for k := s.snStart[sn]; k < s.snStart[sn+1]; k++ {
			snOf[k] = sn
		}
	}

	// Update programs. Source [c0..e] with shared rows S = below(e)
	// reaches destination t through the run of S that are t's columns,
	// and updates each of them over the rows of S from it on: the run's
	// first row and all after it are the source's rows at or below t's
	// first column. Sweeping sources in ascending order lists each
	// program's sources ascending.
	runs := func(visit func(sn, t, t0, m int)) {
		for sn := 0; sn < ns; sn++ {
			e := s.snStart[sn+1] - 1
			shared := s.li[s.lp[e]:s.lp[e+1]]
			for t0 := 0; t0 < len(shared); {
				t, m := snOf[shared[t0]], 1
				for t0+m < len(shared) && snOf[shared[t0+m]] == t {
					m++
				}
				visit(sn, t, t0, m)
				t0 += m
			}
		}
	}
	s.updPtr = make([]int, ns+1)
	runs(func(_, t, _, _ int) { s.updPtr[t+1]++ })
	for t := 0; t < ns; t++ {
		s.updPtr[t+1] += s.updPtr[t]
	}
	s.upd = make([]ldlUpdate, s.updPtr[ns])
	copy(next, s.updPtr[:ns])
	runs(func(sn, t, t0, m int) {
		c0, e := s.snStart[sn], s.snStart[sn+1]-1
		rows := s.li[s.lp[e]+t0 : s.lp[e+1]]
		ln, dense := len(rows), m
		for dense > 0 && rows[ln-1]-rows[dense-1] == ln-dense {
			dense--
		}
		s.upd[next[t]] = ldlUpdate{c0: int32(c0), e: int32(e), ln: int32(ln), m: int32(m), dense: int32(dense)}
		next[t]++
	})

	// Resolve the programs' rows to positions in each destination's row
	// list (pos, reusing cnt).
	pos := cnt
	for t := 0; t < ns; t++ {
		c0, c1 := s.snStart[t], s.snStart[t+1]
		w := c1 - c0
		for k := c0; k < c1; k++ {
			pos[k] = k - c0
		}
		below := s.li[s.lp[c1-1]:s.lp[c1]]
		for p, r := range below {
			pos[r] = w + p
		}
		nr := w + len(below)
		s.maxRows = max(s.maxRows, nr)
		s.maxBlock = max(s.maxBlock, blockBase(w, nr)+w)
		for u := s.updPtr[t]; u < s.updPtr[t+1]; u++ {
			up := &s.upd[u]
			up.rel = int32(len(s.rel))
			end := s.lp[up.e+1]
			for _, r := range s.li[end-int(up.ln) : end] {
				s.rel = append(s.rel, int32(pos[r]))
			}
		}
	}
	return s
}

// N returns the matrix dimension the analysis was made for.
func (s *LDLSymbolic) N() int { return s.n }

// NNZ returns the stored entries of a factorization: strict L plus the
// n pivots of D. It is also the length of the packed matrix a
// factorization reads (see LDLSymbolic).
func (s *LDLSymbolic) NNZ() int { return len(s.li) + s.n }

// Slots returns the packed offset of each stored entry of a, in CSC
// order: entry (i, j) and its mirror (j, i) share one. Every entry of
// the analyzed pattern has a slot; Slots panics on one outside the
// factor's pattern.
func (s *LDLSymbolic) Slots(a *CSC) []int32 {
	slots := make([]int32, a.ColPtr[a.NCols])
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i, k := s.pinv[a.RowIdx[p]], s.pinv[j]
			i, k = max(i, k), min(i, k)
			slot := s.lp[k] + k
			if i != k {
				t, ok := slices.BinarySearch(s.li[s.lp[k]:s.lp[k+1]], i)
				if !ok {
					panic("sparse: Slots of an entry outside the factor's pattern")
				}
				slot += 1 + t
			}
			slots[p] = int32(slot)
		}
	}
	return slots
}

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

// Updates returns the number of source→destination supernode updates
// one factorization applies: the entries of every update program.
func (s *LDLSymbolic) Updates() int { return len(s.upd) }

// Flops returns the floating-point operations of one factorization:
// column j with c entries below its pivot updates the c(c+1)/2 entries
// at and below each of them, a multiply and an add per entry, and
// divides its c entries by the pivot — c(c+2) — summed over the columns.
func (s *LDLSymbolic) Flops() int {
	flops := 0
	for j := 0; j < s.n; j++ {
		c := s.lp[j+1] - s.lp[j]
		flops += c * (c + 2)
	}
	return flops
}

// LDLFactors holds a numeric factorization S(q,q) = L·D·Lᵀ of a
// symmetric matrix S, on an LDLSymbolic, with the workspace that
// computes it. A zero value is ready for FactorPacked or FactorInto; it
// keeps its storage across calls, so refactoring on the same analysis —
// or on one whose factor, largest supernode block and row list are no
// larger — allocates nothing.
type LDLFactors struct {
	sym *LDLSymbolic
	lx  []float64 // strict L, aligned with sym.li
	d   []float64 // the pivots
	blk []float64 // the destination supernode's block
	tmp []float64 // two buffered accumulations, maxRows each
	// packed is FactorInto's: the matrix loaded into the packed layout.
	packed []float64
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
	f.blk = resize(f.blk, s.maxBlock)
	f.tmp = resize(f.tmp, 2*s.maxRows)
}

// FactorInto computes the LDLᵀ factorization of the symmetric part
// (A+Aᵀ)/2 of a into f: it loads a into the packed layout — a diagonal
// entry as it is, an off-diagonal one as half its value, added to its
// mirror's half in CSC order — and factors that with FactorPacked.
// ErrPatternChanged when a does not have the analyzed pattern.
func (s *LDLSymbolic) FactorInto(f *LDLFactors, a *CSC) error {
	if !s.pat.matches(a) {
		return ErrPatternChanged
	}
	return s.FactorPacked(f, f.load(s, a))
}

// load writes the symmetric part of a, which has s's pattern, into f's
// packed buffer and returns it.
func (f *LDLFactors) load(s *LDLSymbolic, a *CSC) []float64 {
	s.loadOnce.Do(func() {
		s.loadSlots = s.Slots(&CSC{NRows: s.n, NCols: s.n, ColPtr: s.pat.colPtr, RowIdx: s.pat.rowIdx})
	})
	v := resize(f.packed, s.NNZ())
	f.packed = v
	clear(v)
	for j := 0; j < a.NCols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowIdx[p] == j {
				v[s.loadSlots[p]] = a.Val[p]
			} else {
				v[s.loadSlots[p]] += 0.5 * a.Val[p]
			}
		}
	}
	return v
}

// FactorPacked computes the LDLᵀ factorization of the symmetric matrix
// whose lower triangle v holds in the packed layout (see LDLSymbolic;
// NNZ values) into f; v is not modified. Pivots stay on the diagonal: a
// pivot below boostPivotRel of its column's largest updated entry is
// raised to ±boostPivotRel times that entry (static pivot perturbation,
// bounding element growth), and a column whose updated entries all
// collapse below singularRel of its matrix column returns ErrSingular.
// After an error f holds no factorization but stays usable. The factors
// are a pure function of the analysis and the values.
func (s *LDLSymbolic) FactorPacked(f *LDLFactors, v []float64) error {
	if len(v) != s.NNZ() {
		panic("sparse: FactorPacked of a packed matrix of another length")
	}
	f.bind(s)
	lx, d, lp := f.lx, f.d, s.lp
	// One bound on every column's largest entry: a column whose updated
	// entries clear it cannot have collapsed, so only the rest scan their
	// own matrix column.
	aMax := 0.0
	for _, x := range v {
		if t := math.Abs(x); t > aMax {
			aMax = t
		}
	}
	tmp1, tmp2 := f.tmp[:s.maxRows], f.tmp[s.maxRows:]
	for t := 0; t+1 < len(s.snStart); t++ {
		c0, c1 := s.snStart[t], s.snStart[t+1]
		w := c1 - c0
		nr := w + lp[c1] - lp[c1-1]
		blk := f.blk[:copy(f.blk, v[lp[c0]+c0:lp[c1]+c1])]
		upd := s.upd[s.updPtr[t]:s.updPtr[t+1]]
		for i := range upd {
			if u := &upd[i]; u.e-u.c0 < 2 {
				f.applyDirect(blk, nr, u)
			} else {
				f.applyPanel(blk, nr, u)
			}
		}

		// T's own columns, left-looking: column k takes members c0..k-1
		// over its rows from k on, consecutive in the block. It
		// accumulates in place when they are consecutive in the matrix
		// too, or when at most one member makes it a direct update. A
		// pair (k, k+1) shares the groups of four both columns have; each
		// column's remaining groups follow, k's before its pivot.
		consec := nr == w || s.li[lp[c1]-1]-c0 == nr-1
		for k := c0; k < c1; k += 2 {
			col1, acc1 := ownColumn(blk, nr, k-c0, consec || k <= c0+1, tmp1)
			if k+1 == c1 {
				if k > c0 {
					panelUpdate(acc1, nil, lx, lp, d, c0, k-1)
				}
				if err := s.pivot(f, v, k, col1, acc1, aMax); err != nil {
					return err
				}
				break
			}
			col2, acc2 := ownColumn(blk, nr, k+1-c0, consec || k == c0, tmp2)
			q := c0 + (k-c0)/4*4
			if q > c0 {
				panelUpdate(acc1, acc2, lx, lp, d, c0, q-1)
			}
			if q < k {
				panelUpdate(acc1, nil, lx, lp, d, q, k-1)
			}
			if err := s.pivot(f, v, k, col1, acc1, aMax); err != nil {
				return err
			}
			panelUpdate(acc2, nil, lx, lp, d, q, k)
			if err := s.pivot(f, v, k+1, col2, acc2, aMax); err != nil {
				return err
			}
		}
	}
	return nil
}

// ownColumn returns column jj of a block with an nr-row list, from its
// pivot down, and the accumulator its own supernode's update goes to:
// the column itself in place, else buf zeroed.
func ownColumn(blk []float64, nr, jj int, inPlace bool, buf []float64) (col, acc []float64) {
	base := blockBase(jj, nr)
	col = blk[base+jj : base+nr]
	if inPlace {
		return col, col
	}
	acc = buf[:len(col)]
	clear(acc)
	return col, acc
}

// pivot finishes column k from its block column col (pivot first) once
// acc, its buffered accumulation when it is not col itself, is added:
// it checks for collapse against the packed matrix v, boosts a small
// pivot and scales the column into L.
func (s *LDLSymbolic) pivot(f *LDLFactors, v []float64, k int, col, acc []float64, aMax float64) error {
	if &acc[0] != &col[0] {
		for t, x := range acc {
			col[t] += x
		}
	}
	dk := col[0]
	amax := math.Abs(dk)
	for _, x := range col[1:] {
		if t := math.Abs(x); t > amax {
			amax = t
		}
	}
	if math.IsNaN(dk) || !(amax > singularRel*aMax) && !(amax > singularRel*s.columnMax(v, k)) {
		return ErrSingular
	}
	if math.Abs(dk) < boostPivotRel*amax {
		dk = math.Copysign(boostPivotRel*amax, dk)
	}
	f.d[k] = dk
	inv := 1 / dk
	lk := f.lx[s.lp[k]:s.lp[k+1]]
	for t, x := range col[1:] {
		lk[t] = x * inv
	}
	return nil
}

// columnMax is the largest magnitude in column k of the symmetric matrix
// packed in v: its own packed column, from the diagonal down, and the
// entries of row k left of the diagonal.
func (s *LDLSymbolic) columnMax(v []float64, k int) float64 {
	m := 0.0
	for _, x := range v[s.lp[k]+k : s.lp[k+1]+k+1] {
		m = max(m, math.Abs(x))
	}
	for _, p := range s.rowSlot[s.rowPtr[k]:s.rowPtr[k+1]] {
		m = max(m, math.Abs(v[p]))
	}
	return m
}

// applyDirect adds the update u of a source supernode one or two
// columns wide — one member group — to every column of the destination
// block (nr rows) it reaches, two columns per pass, without a buffer.
// A one-column source adds s·u; a two-column one adds z + Σ s·u, where
// z = +0 reproduces the zeroed buffer's 0 + Σ s·u of a scattered target
// and z = −0 the in-place Σ s·u.
func (f *LDLFactors) applyDirect(blk []float64, nr int, u *ldlUpdate) {
	c0, e, ln, m, dense := int(u.c0), int(u.e), int(u.ln), int(u.m), int(u.dense)
	lp := f.sym.lp
	rel := f.sym.rel[u.rel : int(u.rel)+ln]
	s1 := f.lx[lp[e+1]-ln : lp[e+1]]
	s1 = s1[:len(rel)]
	if c0 == e {
		d1 := -f.d[e]
		for i := 0; i < m; i += 2 {
			b1, u1 := blockBase(int(rel[i]), nr), d1*s1[i]
			if i+1 == m {
				for t, r := range rel[i:] {
					blk[b1+int(r)] += s1[i+t] * u1
				}
				return
			}
			b2, u2 := blockBase(int(rel[i+1]), nr), d1*s1[i+1]
			blk[b1+int(rel[i])] += s1[i] * u1
			for t, r := range rel[i+1:] {
				x := s1[i+1+t]
				blk[b1+int(r)] += x * u1
				blk[b2+int(r)] += x * u2
			}
		}
		return
	}
	s0 := f.lx[lp[c0+1]-ln : lp[c0+1]]
	s0 = s0[:len(rel)]
	d0, d1 := -f.d[c0], -f.d[e]
	zero := func(i int) float64 {
		if i < dense {
			return 0
		}
		return negZero
	}
	for i := 0; i < m; i += 2 {
		b1, z1 := blockBase(int(rel[i]), nr), zero(i)
		u0, u1 := d0*s0[i], d1*s1[i]
		if i+1 == m {
			for t, r := range rel[i:] {
				blk[b1+int(r)] += z1 + (s0[i+t]*u0 + s1[i+t]*u1)
			}
			return
		}
		b2, z2 := blockBase(int(rel[i+1]), nr), zero(i+1)
		v0, v1 := d0*s0[i+1], d1*s1[i+1]
		blk[b1+int(rel[i])] += z1 + (s0[i]*u0 + s1[i]*u1)
		for t, r := range rel[i+1:] {
			x0, x1 := s0[i+1+t], s1[i+1+t]
			blk[b1+int(r)] += z1 + (x0*u0 + x1*u1)
			blk[b2+int(r)] += z2 + (x0*v0 + x1*v1)
		}
	}
}

// applyPanel adds the update u of a wider source supernode to every
// column of the destination block (nr rows) it reaches, two columns per
// pass through panelUpdate.
func (f *LDLFactors) applyPanel(blk []float64, nr int, u *ldlUpdate) {
	s := f.sym
	lx, lp, d := f.lx, s.lp, f.d
	c0, e, ln, m, dense := int(u.c0), int(u.e), int(u.ln), int(u.m), int(u.dense)
	rel := s.rel[u.rel : int(u.rel)+ln]
	tmp1, tmp2 := f.tmp[:s.maxRows], f.tmp[s.maxRows:]
	for i := 0; i < m; i += 2 {
		b1, acc1 := target(blk, nr, rel, i, i >= dense, tmp1)
		if i+1 == m {
			panelUpdate(acc1, nil, lx, lp, d, c0, e)
			scatter(blk, b1, rel[i:], acc1, i >= dense)
			break
		}
		b2, acc2 := target(blk, nr, rel, i+1, i+1 >= dense, tmp2)
		panelUpdate(acc1, acc2, lx, lp, d, c0, e)
		scatter(blk, b1, rel[i:], acc1, i >= dense)
		scatter(blk, b2, rel[i+1:], acc2, i+1 >= dense)
	}
}

// target returns the block base of the destination column at rel[i] and
// the accumulator of its update over the rows rel[i:]: the block column
// itself when it updates in place, else buf zeroed.
func target(blk []float64, nr int, rel []int32, i int, inPlace bool, buf []float64) (base int, acc []float64) {
	jj := int(rel[i])
	base = blockBase(jj, nr)
	if inPlace {
		return base, blk[base+jj : base+jj+len(rel)-i]
	}
	acc = buf[:len(rel)-i]
	clear(acc)
	return base, acc
}

// scatter adds a buffered accumulation over the rows rel into the block
// column at base; an in-place one is already there.
func scatter(blk []float64, base int, rel []int32, acc []float64, inPlace bool) {
	if inPlace {
		return
	}
	rel = rel[:len(acc)]
	for t, v := range acc {
		blk[base+int(rel[t])] += v
	}
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
// j0..e of one supernode into acc1, which is aligned with the trailing
// len(acc1) rows of every member column (the first of them row k), and
// likewise into acc2 for the target column k2 at the first of acc2's
// rows, aligned with the trailing len(acc2) of acc1's; acc2 may be
// empty. Four members per pass: each target is read and written once
// per four L-segment streams, and each loaded L entry feeds both.
func panelUpdate(acc1, acc2, lx []float64, lp []int, d []float64, j, e int) {
	ln := len(acc1)
	off := ln - len(acc2)
	v := min(off, ln-1) // the multipliers' row, in range when acc2 is empty
	head, tail := acc1[:off], acc1[off:]
	for ; j+3 <= e; j += 4 {
		s0 := lx[lp[j+1]-ln : lp[j+1]]
		s1 := lx[lp[j+2]-ln : lp[j+2]]
		s2 := lx[lp[j+3]-ln : lp[j+3]]
		s3 := lx[lp[j+4]-ln : lp[j+4]]
		u0, u1, u2, u3 := -d[j]*s0[0], -d[j+1]*s1[0], -d[j+2]*s2[0], -d[j+3]*s3[0]
		v0, v1, v2, v3 := -d[j]*s0[v], -d[j+1]*s1[v], -d[j+2]*s2[v], -d[j+3]*s3[v]
		for t := range head {
			head[t] += s0[t]*u0 + s1[t]*u1 + s2[t]*u2 + s3[t]*u3
		}
		s0, s1, s2, s3 = s0[off:], s1[off:], s2[off:], s3[off:]
		s0, s1, s2, s3 = s0[:len(tail)], s1[:len(tail)], s2[:len(tail)], s3[:len(tail)]
		acc2 := acc2[:len(tail)]
		for t := range tail {
			x0, x1, x2, x3 := s0[t], s1[t], s2[t], s3[t]
			tail[t] += x0*u0 + x1*u1 + x2*u2 + x3*u3
			acc2[t] += x0*v0 + x1*v1 + x2*v2 + x3*v3
		}
	}
	if j+1 <= e {
		s0 := lx[lp[j+1]-ln : lp[j+1]]
		s1 := lx[lp[j+2]-ln : lp[j+2]]
		u0, u1 := -d[j]*s0[0], -d[j+1]*s1[0]
		v0, v1 := -d[j]*s0[v], -d[j+1]*s1[v]
		for t := range head {
			head[t] += s0[t]*u0 + s1[t]*u1
		}
		s0, s1 = s0[off:], s1[off:]
		s0, s1 = s0[:len(tail)], s1[:len(tail)]
		acc2 := acc2[:len(tail)]
		for t := range tail {
			x0, x1 := s0[t], s1[t]
			tail[t] += x0*u0 + x1*u1
			acc2[t] += x0*v0 + x1*v1
		}
		j += 2
	}
	if j == e {
		s0 := lx[lp[j+1]-ln : lp[j+1]]
		u0, v0 := -d[j]*s0[0], -d[j]*s0[v]
		for t := range head {
			head[t] += s0[t] * u0
		}
		s0 = s0[off:]
		s0 = s0[:len(tail)]
		acc2 := acc2[:len(tail)]
		for t := range tail {
			x0 := s0[t]
			tail[t] += x0 * u0
			acc2[t] += x0 * v0
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
