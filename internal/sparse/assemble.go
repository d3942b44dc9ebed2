package sparse

// Assembler is a reusable triplet-to-CSC compiler for hot loops that
// assemble the same sparsity pattern over and over with fresh values
// (interior-point KKT systems, Jacobian blocks re-stamped every
// iteration). A Builder pays a per-column sort on every ToCSC; the
// Assembler pays it once, on the first pass, and turns every later pass
// with the same Append sequence into a verified O(nnz) value stamp with
// zero allocations.
//
// Usage per pass:
//
//	asm.Begin()
//	asm.Append(i, j, v) ... // same (i,j) sequence as the compiled pass
//	m := asm.Finish()
//
// Finish returns the Assembler's internal matrix: callers must treat it
// as read-only and must not retain it across passes. Each Append is
// verified against the compiled sequence with two integer compares; any
// deviation (different coordinates, different length) silently falls
// back to a full recompile of the new sequence, so correctness never
// depends on the pattern actually being fixed. Duplicate entries sum in
// append order both when compiling (the per-column sort is stable) and
// when stamping, so the two paths are bit-identical for identical
// append sequences.
type Assembler struct {
	nrows, ncols int
	rows, cols   []int32
	vals         []float64
	n            int // triplets appended this pass

	compiled  bool    // csc/pos describe rows/cols[:compiledN]
	compiledN int     // triplet count of the compiled sequence
	live      bool    // this pass still matches the compiled sequence
	pos       []int32 // triplet k -> index into csc.Val
	csc       *CSC
}

// Live passes stamp values directly into csc.Val as they are appended
// (Begin zeroes it), in append order — the same summation order the
// two-pass zero-then-scatter of earlier versions used, so results stay
// bit-identical while the triplet array is traversed once instead of
// twice. A pass that deviates from the compiled sequence abandons the
// partial stamp: compile() rebuilds csc.Val wholesale from the triplet
// values, which every path keeps up to date.

// NewAssembler returns an Assembler for an nrows×ncols matrix.
func NewAssembler(nrows, ncols int) *Assembler {
	return &Assembler{nrows: nrows, ncols: ncols}
}

// Begin starts a new assembly pass.
func (a *Assembler) Begin() {
	a.n = 0
	a.live = a.compiled
	if a.live {
		v := a.csc.Val
		for i := range v {
			v[i] = 0
		}
	}
}

// Append records v at (i, j). Duplicates sum, as in Builder.Append.
func (a *Assembler) Append(i, j int, v float64) {
	k := a.n
	if k < len(a.rows) {
		if a.live && k < a.compiledN && a.rows[k] == int32(i) && a.cols[k] == int32(j) {
			// Fast path: coordinates match the compiled sequence,
			// which was bounds-checked when first compiled.
			a.vals[k] = v
			a.csc.Val[a.pos[k]] += v
			a.n = k + 1
			return
		}
		a.checkBounds(i, j)
		a.rows[k], a.cols[k], a.vals[k] = int32(i), int32(j), v
		a.live = false
		a.n = k + 1
		return
	}
	a.checkBounds(i, j)
	a.rows = append(a.rows, int32(i))
	a.cols = append(a.cols, int32(j))
	a.vals = append(a.vals, v)
	a.live = false
	a.n = k + 1
}

func (a *Assembler) checkBounds(i, j int) {
	if i < 0 || i >= a.nrows || j < 0 || j >= a.ncols {
		panic("sparse: Assembler entry outside matrix")
	}
}

// AppendCSC copies src, scaled by s, at row/col offsets — the block-
// assembly primitive, mirroring Builder.AppendCSC.
func (a *Assembler) AppendCSC(rowOff, colOff int, s float64, src *CSC) {
	for j := 0; j < src.NCols; j++ {
		for p := src.ColPtr[j]; p < src.ColPtr[j+1]; p++ {
			a.Append(rowOff+src.RowIdx[p], colOff+j, s*src.Val[p])
		}
	}
}

// AppendOuter appends the w-weighted outer product of a sparse row with
// itself: the entries (cols[p1], cols[p2], w·vals[p1]·vals[p2]) for all
// (p1, p2) pairs in p1-major order — the Σ-weighted normal-matrix rows
// of a KKT assembly. It is equivalent to the corresponding Append
// sequence (deviation fallback included) but performs the sequence
// check and the value stamp in one tight loop instead of m² calls.
func (a *Assembler) AppendOuter(w float64, cols []int32, vals []float64) {
	m := len(cols)
	mm := m * m
	k := a.n
	if a.live && k+mm <= a.compiledN {
		rows, cc, vv := a.rows[k:k+mm], a.cols[k:k+mm], a.vals[k:k+mm]
		pos, cv := a.pos[k:k+mm], a.csc.Val
		t := 0
		for p1 := 0; p1 < m; p1++ {
			v1 := w * vals[p1]
			r := cols[p1]
			for p2 := 0; p2 < m; p2++ {
				if rows[t] != r || cc[t] != cols[p2] {
					// Deviation: abandon the partial stamp (compile()
					// rebuilds csc.Val from the triplet values) and
					// replay this outer product through Append.
					a.live = false
					a.appendOuterSlow(w, cols, vals)
					return
				}
				v := v1 * vals[p2]
				vv[t] = v
				cv[pos[t]] += v
				t++
			}
		}
		a.n = k + mm
		return
	}
	a.appendOuterSlow(w, cols, vals)
}

func (a *Assembler) appendOuterSlow(w float64, cols []int32, vals []float64) {
	for p1 := range cols {
		v1 := w * vals[p1]
		c1 := int(cols[p1])
		for p2 := range cols {
			a.Append(c1, int(cols[p2]), v1*vals[p2])
		}
	}
}

// Finish compiles (or stamps) the pass and returns the matrix. The
// returned *CSC is the Assembler's reused storage: read-only, valid
// until the next Begin.
func (a *Assembler) Finish() *CSC {
	if a.live && a.n == a.compiledN {
		return a.csc
	}
	return a.compile()
}

// compile sorts the recorded triplets column-major (stable within each
// column, so duplicate summation order matches the stamp path), builds
// the CSC structure, and records each triplet's destination slot.
func (a *Assembler) compile() *CSC {
	n := a.n
	if a.csc == nil {
		a.csc = &CSC{NRows: a.nrows, NCols: a.ncols}
	}
	m := a.csc
	if cap(m.ColPtr) < a.ncols+1 {
		m.ColPtr = make([]int, a.ncols+1)
	}
	m.ColPtr = m.ColPtr[:a.ncols+1]
	for i := range m.ColPtr {
		m.ColPtr[i] = 0
	}
	// Stable counting distribution of triplet indices by column.
	for k := 0; k < n; k++ {
		m.ColPtr[a.cols[k]+1]++
	}
	for j := 0; j < a.ncols; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	idx := make([]int32, n)
	next := make([]int, a.ncols)
	copy(next, m.ColPtr[:a.ncols])
	for k := 0; k < n; k++ {
		j := a.cols[k]
		idx[next[j]] = int32(k)
		next[j]++
	}
	if cap(a.pos) < n {
		a.pos = make([]int32, n)
	}
	a.pos = a.pos[:n]
	rowIdx := m.RowIdx[:0]
	vals := m.Val[:0]
	out := 0
	for j := 0; j < a.ncols; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		seg := idx[lo:hi]
		// Stable insertion sort by row: equal rows keep ascending
		// triplet order, so summation order equals append order.
		for t := 1; t < len(seg); t++ {
			k := seg[t]
			r := a.rows[k]
			u := t - 1
			for u >= 0 && a.rows[seg[u]] > r {
				seg[u+1] = seg[u]
				u--
			}
			seg[u+1] = k
		}
		m.ColPtr[j] = out // rewrite to deduplicated offsets
		last := int32(-1)
		for _, k := range seg {
			r := a.rows[k]
			if out > m.ColPtr[j] && r == last {
				vals[out-1] += a.vals[k]
			} else {
				rowIdx = append(rowIdx, int(r))
				vals = append(vals, a.vals[k])
				out++
				last = r
			}
			a.pos[k] = int32(out - 1)
		}
	}
	m.ColPtr[a.ncols] = out
	m.RowIdx = rowIdx
	m.Val = vals
	a.compiled = true
	a.compiledN = n
	a.live = true
	return m
}
