package sparse

import (
	"math"
	"sort"
)

// This file implements the blocked (supernodal) numeric refactorization
// kernel. The scalar RefactorInto consumes one source column at a time: for
// every source it re-loads the column's row indices and scatters an
// axpy into the dense accumulator. On the KKT factors of larger grids
// most of that work happens inside the dense trailing profile of L,
// where runs of adjacent columns share one below-diagonal row set. The
// blocked kernel detects those runs (supernodes) once on the frozen
// symbolic pattern, stores their rows in an aligned order, and then
// consumes a whole panel of sources with dense triangular + panel-axpy
// updates: row indices are loaded once per panel instead of once per
// member, and the inner loops run over contiguous value slices.
//
// The factors produced are numerically equivalent to the scalar kernel's
// (same pivot sequence, same patterns) but not bit-identical: grouping
// a panel's updates changes floating-point summation order. The kernel
// is deterministic — a pure function of (pattern, values) — and keeps
// the exact scalar semantics for the pivot-decay check, so the
// ErrRefactorUnstable → re-analyze fallback behaves identically.

const (
	// maxPanelWidth caps supernode width; it bounds the panel value
	// buffer and keeps the dense triangular part register-friendly.
	maxPanelWidth = 32
	// Auto-selection: the blocked kernel wins when enough of the
	// update flops run through panels of shared rows; below these
	// thresholds the grouping bookkeeping costs more than it saves.
	blockedMinN         = 192
	blockedPanelFracMin = 0.25
)

// blockedSchedule is the per-Symbolic plan for RefactorBlockedInto: the
// supernode partition of the pivot columns, the aligned L row order,
// and one consumption program per destination column.
type blockedSchedule struct {
	snOf     []int // column -> supernode index
	snStart  []int // supernode -> first member column
	snEnd    []int // supernode -> last member column
	belowLen []int // supernode -> |shared below-diagonal row set|

	// bli is s.li reordered within each column (same lp offsets):
	// diagonal first, then in-panel rows ascending, then the shared
	// below rows in one canonical ascending order — so the trailing
	// belowLen entries of every member column are row-aligned.
	bli []int

	// prog is the flattened consumption program. For destination k the
	// ops live at prog[progPtr[k]:progPtr[k+1]]; each op is a count m
	// followed by m U-positions (ascending member columns for m > 1).
	prog    []int32
	progPtr []int

	maxWidth  int
	maxBelow  int
	panels    int     // supernodes of width >= 2
	panelCols int     // columns inside those supernodes
	panelFrac float64 // fraction of update flops routed through panels
	use       bool    // auto-selection verdict
}

// PanelStats describes the blocked schedule of a Symbolic: how much of
// the frozen pattern the supernode detection covered and whether the
// automatic kernel selection picked the blocked kernel.
type PanelStats struct {
	Supernodes int     // supernodes of width >= 2
	PanelCols  int     // columns inside them
	MaxWidth   int     // widest supernode
	MaxBelow   int     // largest shared below-row set
	PanelFrac  float64 // fraction of update flops routed through panels
	Blocked    bool    // true when RefactorAutoInto selects the blocked kernel
}

// PanelStats builds the blocked schedule if needed and reports it.
func (s *Symbolic) PanelStats() PanelStats {
	b := s.blocked()
	return PanelStats{
		Supernodes: b.panels,
		PanelCols:  b.panelCols,
		MaxWidth:   b.maxWidth,
		MaxBelow:   b.maxBelow,
		PanelFrac:  b.panelFrac,
		Blocked:    b.use,
	}
}

// Blocked reports whether automatic kernel selection uses the blocked
// kernel for this pattern (a deterministic pure function of the
// pattern).
func (s *Symbolic) Blocked() bool { return s.blocked().use }

func (s *Symbolic) blocked() *blockedSchedule {
	if b := s.blk.Load(); b != nil {
		return b
	}
	// Benign race: concurrent builders compute identical schedules
	// from the immutable pattern; first store wins.
	s.blk.CompareAndSwap(nil, s.buildBlockedSchedule())
	return s.blk.Load()
}

// nestedColumns reports whether column c can extend a supernode ending
// at column c-1: below(c-1) = {c} ∪ below(c) as sets. mark must be an
// all-false scratch of length n and is restored before returning.
func (s *Symbolic) nestedColumns(c int, mark []bool) bool {
	a := c - 1
	na := s.lp[a+1] - s.lp[a] - 1
	nb := s.lp[c+1] - s.lp[c] - 1
	ok := na == nb+1
	if ok {
		for p := s.lp[a] + 1; p < s.lp[a+1]; p++ {
			mark[s.li[p]] = true
		}
		ok = mark[c]
		if ok {
			for p := s.lp[c] + 1; p < s.lp[c+1]; p++ {
				if !mark[s.li[p]] {
					ok = false
					break
				}
			}
		}
		for p := s.lp[a] + 1; p < s.lp[a+1]; p++ {
			mark[s.li[p]] = false
		}
	}
	return ok
}

func (s *Symbolic) buildBlockedSchedule() *blockedSchedule {
	n := s.n
	b := &blockedSchedule{snOf: make([]int, n)}
	mark := make([]bool, n)

	// 1. Partition the pivot columns into maximal nested runs.
	if n > 0 {
		b.snStart = append(b.snStart, 0)
		for c := 1; c < n; c++ {
			cur := len(b.snStart) - 1
			if c-b.snStart[cur] < maxPanelWidth && s.nestedColumns(c, mark) {
				continue
			}
			b.snEnd = append(b.snEnd, c-1)
			b.snStart = append(b.snStart, c)
		}
		b.snEnd = append(b.snEnd, n-1)
	}
	b.belowLen = make([]int, len(b.snStart))
	for si := range b.snStart {
		for j := b.snStart[si]; j <= b.snEnd[si]; j++ {
			b.snOf[j] = si
		}
		if w := b.snEnd[si] - b.snStart[si] + 1; w >= 2 {
			b.panels++
			b.panelCols += w
			if w > b.maxWidth {
				b.maxWidth = w
			}
		}
	}

	// 2. Aligned row order: for every member column of supernode
	// [c0..e], the chained nesting gives below(j) = {j+1..e} ∪ S with
	// S = below(e). Verify that identity against the stored pattern
	// while writing bli — a wrong schedule must never survive silently.
	b.bli = make([]int, len(s.li))
	for si := range b.snStart {
		c0, e := b.snStart[si], b.snEnd[si]
		bl := s.lp[e+1] - s.lp[e] - 1
		b.belowLen[si] = bl
		if e > c0 && bl > b.maxBelow {
			b.maxBelow = bl
		}
		shared := make([]int, bl)
		copy(shared, s.li[s.lp[e]+1:s.lp[e+1]])
		sort.Ints(shared)
		for j := c0; j <= e; j++ {
			base := s.lp[j]
			if s.lp[j+1]-base != 1+(e-j)+bl {
				panic("sparse: blocked schedule: member column width mismatch")
			}
			b.bli[base] = j
			for d := 1; d <= e-j; d++ {
				b.bli[base+d] = j + d
			}
			copy(b.bli[base+1+(e-j):s.lp[j+1]], shared)
			for p := base; p < s.lp[j+1]; p++ {
				mark[s.li[p]] = true
			}
			for p := base; p < s.lp[j+1]; p++ {
				if !mark[b.bli[p]] {
					panic("sparse: blocked schedule: aligned row set mismatch")
				}
				mark[b.bli[p]] = false
			}
		}
	}

	// 3. Consumption programs. Stored U columns are in topological
	// order; supernode members present in U(:,k) form a suffix of the
	// supernode (truncated at row k-1 when k lies inside it) and appear
	// in ascending column order, so a group op placed at its last
	// member's position is a safe reordering of the scalar sweep.
	b.progPtr = make([]int, n+1)
	pend := make([][]int32, len(b.snStart))
	var totalFlops, panelFlops float64
	for k := 0; k < n; k++ {
		d := s.up[k+1] - 1
		for p := s.up[k]; p < d; p++ {
			j := s.ui[p]
			totalFlops += float64(s.lp[j+1] - s.lp[j] - 1)
			si := b.snOf[j]
			if b.snStart[si] == b.snEnd[si] {
				b.prog = append(b.prog, 1, int32(p))
				continue
			}
			pend[si] = append(pend[si], int32(p))
			if j == b.snEnd[si] || j == k-1 {
				if m := len(pend[si]); m == 1 {
					b.prog = append(b.prog, 1, pend[si][0])
				} else {
					b.prog = append(b.prog, int32(m))
					b.prog = append(b.prog, pend[si]...)
					panelFlops += float64(m * b.belowLen[si])
				}
				pend[si] = pend[si][:0]
			}
		}
		b.progPtr[k+1] = len(b.prog)
	}
	for si := range pend {
		if len(pend[si]) != 0 {
			panic("sparse: blocked schedule: unterminated panel group")
		}
	}
	if totalFlops > 0 {
		b.panelFrac = panelFlops / totalFlops
	}
	b.use = n >= blockedMinN && b.panelFrac >= blockedPanelFracMin
	return b
}

// RefactorWorkspace holds the scratch buffers of the Into-style numeric
// kernels so a steady-state refactorization loop allocates nothing. One
// workspace serves both the scalar and the blocked kernel of the
// Symbolic that created it; it must not be shared across goroutines.
type RefactorWorkspace struct {
	x   []float64 // dense accumulator, kept all-zero between calls
	u   []float64 // panel member U values
	tmp []float64 // panel below-update accumulator
}

// NewRefactorWorkspace returns a workspace sized for this Symbolic's
// pattern (building the blocked schedule so later Into calls stay
// allocation-free).
func (s *Symbolic) NewRefactorWorkspace() *RefactorWorkspace {
	b := s.blocked()
	return &RefactorWorkspace{
		x:   make([]float64, s.n),
		u:   make([]float64, b.maxWidth+1),
		tmp: make([]float64, b.maxBelow),
	}
}

// bindFactors points f at the symbolic index structure (li chooses the
// scalar or aligned row order) and sizes its value storage.
func (s *Symbolic) bindFactors(f *LUFactors, li []int) {
	f.n, f.q, f.pinv = s.n, s.q, s.pinv
	f.lp, f.up = s.lp, s.up
	f.li, f.ui = li, s.ui
	f.lnzTotal = len(s.li) + len(s.ui)
	f.pivotTolND = s.tol
	if cap(f.lx) < len(s.li) {
		f.lx = make([]float64, len(s.li))
	}
	f.lx = f.lx[:len(s.li)]
	if cap(f.ux) < len(s.ui) {
		f.ux = make([]float64, len(s.ui))
	}
	f.ux = f.ux[:len(s.ui)]
}

// clearColumn zeroes the accumulator rows column k may have touched,
// restoring the workspace's all-zero invariant on error paths.
func (s *Symbolic) clearColumn(x []float64, li []int, k int) {
	x[k] = 0
	for p := s.lp[k] + 1; p < s.lp[k+1]; p++ {
		x[li[p]] = 0
	}
}

// refactorColumn runs destination column k of the scalar kernel —
// gather, ordered consumption, pivot check, L/U write — against the
// workspace accumulator x (all-zero on entry, restored on every exit
// path).
func (s *Symbolic) refactorColumn(f *LUFactors, x []float64, a *CSC, k int) error {
	col := s.q[k]
	for p := a.ColPtr[col]; p < a.ColPtr[col+1]; p++ {
		x[s.pinv[a.RowIdx[p]]] = a.Val[p]
	}
	d := s.up[k+1] - 1
	for p := s.up[k]; p < d; p++ {
		j := s.ui[p]
		xj := x[j]
		f.ux[p] = xj
		x[j] = 0
		if xj == 0 {
			continue
		}
		for pl := s.lp[j] + 1; pl < s.lp[j+1]; pl++ {
			x[s.li[pl]] -= f.lx[pl] * xj
		}
	}
	pivot := x[k]
	apiv := math.Abs(pivot)
	amax := apiv
	for p := s.lp[k] + 1; p < s.lp[k+1]; p++ {
		if t := math.Abs(x[s.li[p]]); t > amax {
			amax = t
		}
	}
	if math.IsNaN(pivot) || amax == 0 {
		s.clearColumn(x, s.li, k)
		return ErrSingular
	}
	if s.boost {
		if apiv < boostPivotRel*amax {
			// Static pivot perturbation: keep the shaped diagonal
			// sequence, bound the growth (see boostPivotRel).
			pivot = math.Copysign(boostPivotRel*amax, pivot)
		}
	} else if pivot == 0 {
		s.clearColumn(x, s.li, k)
		return ErrSingular
	} else if apiv < refactorPivotFloor*amax {
		s.clearColumn(x, s.li, k)
		return ErrRefactorUnstable
	}
	x[k] = 0
	f.ux[d] = pivot
	f.lx[s.lp[k]] = 1
	for p := s.lp[k] + 1; p < s.lp[k+1]; p++ {
		i := s.li[p]
		f.lx[p] = x[i] / pivot
		x[i] = 0
	}
	return nil
}

// RefactorInto computes a numeric LU of a on the frozen symbolic
// structure: same ordering, same pivot sequence, same L/U patterns,
// values recomputed for a. It is the hot half of the symbolic/numeric
// split — a single left-looking sweep with no graph traversal and no
// pivot search — and writes into preallocated factors with an external
// workspace: zero allocations per call once f has been through one. f
// is rebound to the symbolic structure (a zero LUFactors will do); ws
// must come from NewRefactorWorkspace. Refactoring the analyzed matrix
// itself reproduces the analyzing factorization bit for bit.
//
// Returns ErrPatternChanged if a's pattern differs from the analyzed
// one, and ErrRefactorUnstable (or ErrSingular) when the frozen pivots
// are no longer numerically acceptable for a's values; both are cues to
// re-Analyze.
func (s *Symbolic) RefactorInto(f *LUFactors, ws *RefactorWorkspace, a *CSC) error {
	if !s.PatternMatches(a) {
		return ErrPatternChanged
	}
	s.bindFactors(f, s.li)
	n := s.n
	x := ws.x
	for k := 0; k < n; k++ {
		if err := s.refactorColumn(f, x, a, k); err != nil {
			return err
		}
	}
	return nil
}

// RefactorBlockedInto is RefactorInto through the supernodal panel
// kernel. Same pivot sequence and patterns; values agree up to
// floating-point summation order. The factors store L rows in the
// aligned (bli) order — equivalent for Solve, which is order-free within
// a column.
func (s *Symbolic) RefactorBlockedInto(f *LUFactors, ws *RefactorWorkspace, a *CSC) error {
	if !s.PatternMatches(a) {
		return ErrPatternChanged
	}
	b := s.blocked()
	s.bindFactors(f, b.bli)
	n := s.n
	for k := 0; k < n; k++ {
		if err := s.refactorColumnBlocked(f, ws, a, b, k); err != nil {
			return err
		}
	}
	return nil
}

// refactorColumnBlocked runs destination column k of the blocked
// kernel: gather, program consumption (scalar ops and panel groups),
// pivot check, L/U write.
func (s *Symbolic) refactorColumnBlocked(f *LUFactors, ws *RefactorWorkspace, a *CSC, b *blockedSchedule, k int) error {
	x := ws.x
	{
		col := s.q[k]
		for p := a.ColPtr[col]; p < a.ColPtr[col+1]; p++ {
			x[s.pinv[a.RowIdx[p]]] = a.Val[p]
		}
		seg := b.prog[b.progPtr[k]:b.progPtr[k+1]]
		for t := 0; t < len(seg); {
			m := int(seg[t])
			t++
			if m == 1 {
				p := int(seg[t])
				t++
				j := s.ui[p]
				xj := x[j]
				f.ux[p] = xj
				x[j] = 0
				if xj == 0 {
					continue
				}
				for pl := s.lp[j] + 1; pl < s.lp[j+1]; pl++ {
					x[b.bli[pl]] -= f.lx[pl] * xj
				}
				continue
			}
			// Panel group: members are the consecutive columns ending
			// at the last op entry; e is their supernode's end (the
			// in-panel extent, which may exceed k for truncated
			// groups — those rows belong to below(k)).
			last := s.ui[int(seg[t+m-1])]
			e := b.snEnd[b.snOf[last]]
			bl := b.belowLen[b.snOf[last]]
			u := ws.u[:m]
			for i := 0; i < m; i++ {
				p := int(seg[t+i])
				j := s.ui[p]
				xj := x[j]
				f.ux[p] = xj
				x[j] = 0
				u[i] = xj
				if xj == 0 {
					continue
				}
				// Dense triangular part: in-panel rows j+1..e are the
				// consecutive entries after the diagonal.
				base := s.lp[j]
				for d := 1; d <= e-j; d++ {
					x[j+d] -= f.lx[base+d] * xj
				}
			}
			// Panel update of the shared below rows: accumulate the
			// members' contiguous trailing segments into tmp, then
			// scatter-subtract once through the aligned row list.
			if bl > 0 {
				tmp := ws.tmp[:bl]
				for i := range tmp {
					tmp[i] = 0
				}
				// Rank-m accumulation, two members per pass: each tmp
				// element written once per pair instead of once per
				// member, halving the accumulator stream next to the two
				// L-segment streams.
				i := 0
				for ; i+1 < m; i += 2 {
					u0, u1 := u[i], u[i+1]
					if u0 == 0 && u1 == 0 {
						continue
					}
					j0 := s.ui[int(seg[t+i])]
					j1 := s.ui[int(seg[t+i+1])]
					l0 := f.lx[s.lp[j0+1]-bl : s.lp[j0+1]]
					l1 := f.lx[s.lp[j1+1]-bl : s.lp[j1+1]]
					for d := range tmp {
						tmp[d] += l0[d]*u0 + l1[d]*u1
					}
				}
				if i < m {
					if ui := u[i]; ui != 0 {
						j := s.ui[int(seg[t+i])]
						lseg := f.lx[s.lp[j+1]-bl : s.lp[j+1]]
						for d, lv := range lseg {
							tmp[d] += lv * ui
						}
					}
				}
				rows := b.bli[s.lp[e+1]-bl : s.lp[e+1]]
				for d, r := range rows {
					x[r] -= tmp[d]
				}
			}
			t += m
		}
		pivot := x[k]
		apiv := math.Abs(pivot)
		amax := apiv
		for p := s.lp[k] + 1; p < s.lp[k+1]; p++ {
			if v := math.Abs(x[b.bli[p]]); v > amax {
				amax = v
			}
		}
		d := s.up[k+1] - 1
		if math.IsNaN(pivot) || amax == 0 {
			s.clearColumn(x, b.bli, k)
			return ErrSingular
		}
		if s.boost {
			if apiv < boostPivotRel*amax {
				// Static pivot perturbation: keep the shaped diagonal
				// sequence, bound the growth (see boostPivotRel).
				pivot = math.Copysign(boostPivotRel*amax, pivot)
			}
		} else if pivot == 0 {
			s.clearColumn(x, b.bli, k)
			return ErrSingular
		} else if apiv < refactorPivotFloor*amax {
			s.clearColumn(x, b.bli, k)
			return ErrRefactorUnstable
		}
		x[k] = 0
		f.ux[d] = pivot
		f.lx[s.lp[k]] = 1
		for p := s.lp[k] + 1; p < s.lp[k+1]; p++ {
			i := b.bli[p]
			f.lx[p] = x[i] / pivot
			x[i] = 0
		}
	}
	return nil
}

// RefactorAutoInto runs the kernel the schedule's density analysis
// selected (see Blocked) — the path every production refactorization
// takes.
func (s *Symbolic) RefactorAutoInto(f *LUFactors, ws *RefactorWorkspace, a *CSC) error {
	if s.blocked().use {
		return s.RefactorBlockedInto(f, ws, a)
	}
	return s.RefactorInto(f, ws, a)
}
