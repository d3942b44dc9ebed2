package mips

import (
	"slices"
	"sync"

	"repro/internal/la"
	"repro/internal/sparse"
)

// Arena owns every buffer the interior-point iteration reuses: the
// dense work vectors, the full inequality Jacobian and the Newton KKT
// matrix with the slot maps their values are stamped through (see
// sparse.CompileSlots), the row-major view of the inequality Jacobian,
// and the factor slot holding preallocated LDLᵀ storage. The slot maps are
// compiled from the patterns of the problem's Jacobians and Hessian the
// first time a solve sees them; after that, and once the slot is bound,
// a Step performs zero heap allocations — everything the hot loop
// touches lives here (the alloc harness in the tests pins this).
//
// An Arena serves one solve at a time. Solve draws arenas from a
// package-level pool, so a worker goroutine sweeping many instances of
// one grid keeps hitting the same warm arena: the slot maps and bound
// factors carry across solves of the same problem structure, and the
// first iteration of a warm solve is as cheap as any other. Size or
// pattern changes are absorbed transparently — vectors regrow and slot
// maps recompile when an input pattern differs from the one they were
// compiled for.
type Arena struct {
	// Dense per-iteration vectors. lx/tmpNx are nx-sized, w/tmpNiq/
	// dz/dmu/jdx/hFull are niq-sized, rhs/dxdlam/solveWork span the KKT
	// system (nx+neq). Every entry is overwritten before use each
	// iteration, so stale values from a previous solve are harmless.
	lx, tmpNx               la.Vector
	w, tmpNiq, dz, dmu, jdx la.Vector
	hFull                   la.Vector
	rhs, dxdlam, solveWork  la.Vector
	// regBase holds the nx primal-diagonal KKT values an inertia
	// correction shifts (kktSystem.saveReg).
	regBase la.Vector

	ineq ineqSystem
	kkt  kktSystem
	slot sparse.FactorSlot
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// grow returns v resized to n, reallocating only when capacity is
// insufficient. Contents are unspecified.
func grow(v la.Vector, n int) la.Vector {
	if cap(v) < n {
		return make(la.Vector, n)
	}
	return v[:n]
}

// ensureIneq sizes the inequality-row buffers. Called once per solve,
// as soon as the first constraint evaluation reveals the full
// inequality count.
func (a *Arena) ensureIneq(niq int) {
	a.w = grow(a.w, niq)
	a.tmpNiq = grow(a.tmpNiq, niq)
	a.dz = grow(a.dz, niq)
	a.dmu = grow(a.dmu, niq)
	a.jdx = grow(a.jdx, niq)
	a.hFull = grow(a.hFull, niq)
}

// ensureKKT sizes the KKT-system buffers.
func (a *Arena) ensureKKT(nx, neq int) {
	n := nx + neq
	a.lx = grow(a.lx, nx)
	a.tmpNx = grow(a.tmpNx, nx)
	a.rhs = grow(a.rhs, n)
	a.dxdlam = grow(a.dxdlam, n)
	a.solveWork = grow(a.solveWork, n)
	a.regBase = grow(a.regBase, nx)
}

// patternKey remembers the sparsity pattern a slot map was compiled
// for: the shape and the ColPtr/RowIdx arrays of the matrix it was
// compiled from, which Problem's contract keeps from being rewritten in
// place. A matrix matches when it shares those arrays (opf hands every
// solve of a grid the same ones) or, failing that, holds equal ones —
// an O(nnz) compare, after which its arrays are the ones remembered. A
// nil matrix has shape (-1, -1).
type patternKey struct {
	nrows, ncols   int
	colPtr, rowIdx []int
}

func shape(m *sparse.CSC) (int, int) {
	if m == nil {
		return -1, -1
	}
	return m.NRows, m.NCols
}

func sameArray(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func (k *patternKey) matches(m *sparse.CSC) bool {
	if nr, nc := shape(m); nr != k.nrows || nc != k.ncols {
		return false
	}
	if m == nil || sameArray(k.colPtr, m.ColPtr) && sameArray(k.rowIdx, m.RowIdx) {
		return true
	}
	if !slices.Equal(k.colPtr, m.ColPtr) || !slices.Equal(k.rowIdx, m.RowIdx) {
		return false
	}
	k.colPtr, k.rowIdx = m.ColPtr, m.RowIdx
	return true
}

func (k *patternKey) remember(m *sparse.CSC) {
	k.nrows, k.ncols = shape(m)
	k.colPtr, k.rowIdx = nil, nil
	if m != nil {
		k.colPtr, k.rowIdx = m.ColPtr, m.RowIdx
	}
}

// nnz is the stored-entry count of a possibly nil matrix.
func nnz(m *sparse.CSC) int {
	if m == nil {
		return 0
	}
	return m.ColPtr[m.NCols]
}

// ineqSystem is the full inequality Jacobian [Jh; bound rows] (niq × nx)
// of Stepper.evalGH: pos maps Jh's entries in CSC order, then the upper-
// and lower-bound rows, to their slots in m. rowPtr/colIdx walk m row
// by row (ascending column within each row) and valPos maps each entry
// of that walk to its slot — the JᵀWJ product's access path. All of it
// is compiled again only when Jh's pattern or the bound set changes.
type ineqSystem struct {
	jh             patternKey
	upper, lower   []int
	m              *sparse.CSC
	pos            []int32
	rowPtr         []int
	colIdx, valPos []int32
}

// bind makes the system fit jh and the bound sets.
func (s *ineqSystem) bind(jh *sparse.CSC, nx int, upper, lower []int) {
	if s.m != nil && s.m.NCols == nx && s.jh.matches(jh) && slices.Equal(s.upper, upper) && slices.Equal(s.lower, lower) {
		return
	}
	nh := 0
	var rows, cols []int32
	if jh != nil {
		nh = jh.NRows
		for j := 0; j < jh.NCols; j++ {
			for p := jh.ColPtr[j]; p < jh.ColPtr[j+1]; p++ {
				rows, cols = append(rows, int32(jh.RowIdx[p])), append(cols, int32(j))
			}
		}
	}
	for k, i := range upper {
		rows, cols = append(rows, int32(nh+k)), append(cols, int32(i))
	}
	off := nh + len(upper)
	for k, i := range lower {
		rows, cols = append(rows, int32(off+k)), append(cols, int32(i))
	}
	m, pos := sparse.CompileSlots(off+len(lower), nx, rows, cols)
	s.m, s.pos = m, pos
	s.jh.remember(jh)
	s.upper = append(s.upper[:0], upper...)
	s.lower = append(s.lower[:0], lower...)

	s.rowPtr = make([]int, m.NRows+1)
	for _, r := range m.RowIdx {
		s.rowPtr[r+1]++
	}
	for r := 0; r < m.NRows; r++ {
		s.rowPtr[r+1] += s.rowPtr[r]
	}
	s.colIdx = make([]int32, len(m.RowIdx))
	s.valPos = make([]int32, len(m.RowIdx))
	fill := slices.Clone(s.rowPtr[:m.NRows])
	for col := 0; col < m.NCols; col++ {
		for p := m.ColPtr[col]; p < m.ColPtr[col+1]; p++ {
			r := m.RowIdx[p]
			s.colIdx[fill[r]] = int32(col)
			s.valPos[fill[r]] = int32(p)
			fill[r]++
		}
	}
}

// kktSystem is the Newton KKT matrix of Step, (nx+neq)², stamped once
// per symmetric pair straight into the packed layout of its LDLᵀ
// analysis (see sparse.LDLSymbolic): v holds the lower triangle, one
// value per slot. bind compiles the matrix's symmetric pattern, from
// which the cache makes or finds the analysis, and address then maps
// each contribution to its packed slot, in stamping order: the JhᵀWJh
// outer products row by row of the inequality Jacobian, each pair of a
// row's entries once, the Hessian's entries on and below the diagonal,
// the nx primal-diagonal entries (not stamped: the inertia shift's),
// Jg's entries and the neq dual-diagonal ones. The pattern recompiles
// when the inequality Jacobian, the Hessian or Jg has a pattern other
// than the compiled one, the slots when the analysis changes.
type kktSystem struct {
	jh, hess, jg patternKey
	// pat is the symmetric pattern of the matrix, both triangles, and
	// pos each contribution's entry in it, in stamping order.
	pat *sparse.CSC
	pos []int32
	// hessQ lists the Hessian entries stamped, those on and below the
	// diagonal; nOuter, nx and ng count the outer products, the primal
	// diagonal and Jg's entries among the contributions.
	hessQ          []int32
	nOuter, nx, ng int
	// sym is the analysis the slot maps address, slot the packed offset
	// of each of pat's entries.
	sym                              *sparse.LDLSymbolic
	slot                             []int32
	outer, hessPos, reg, jgPos, dual []int32
	v                                []float64
}

// bind makes the system's pattern fit the inequality system and the
// Hessian and Jg patterns (either may be nil).
func (s *kktSystem) bind(in *ineqSystem, hess, jg *sparse.CSC, nx, neq int) {
	if s.pat != nil && s.jh.matches(in.m) && s.hess.matches(hess) && s.jg.matches(jg) {
		return
	}
	var rows, cols []int32
	add := func(i, j int) { rows, cols = append(rows, int32(i)), append(cols, int32(j)) }
	for r := 0; r < in.m.NRows; r++ {
		row := in.colIdx[in.rowPtr[r]:in.rowPtr[r+1]]
		for p, a := range row {
			for _, b := range row[:p+1] {
				add(int(a), int(b))
			}
		}
	}
	s.hessQ = s.hessQ[:0]
	for j := 0; hess != nil && j < hess.NCols; j++ {
		for p := hess.ColPtr[j]; p < hess.ColPtr[j+1]; p++ {
			if i := hess.RowIdx[p]; i >= j {
				s.hessQ = append(s.hessQ, int32(p))
				add(i, j)
			}
		}
	}
	s.nOuter, s.nx, s.ng = len(rows)-len(s.hessQ), nx, nnz(jg)
	for i := 0; i < nx; i++ {
		add(i, i)
	}
	for j := 0; jg != nil && j < jg.NCols; j++ {
		for q := jg.ColPtr[j]; q < jg.ColPtr[j+1]; q++ {
			add(nx+jg.RowIdx[q], j)
		}
	}
	for i := 0; i < neq; i++ {
		add(nx+i, nx+i)
	}
	// The mirrors complete the symmetric pattern the analysis is made of.
	n := len(rows)
	rows, cols = append(rows, cols...), append(cols, rows...)
	var pos []int32
	s.pat, pos = sparse.CompileSlots(nx+neq, nx+neq, rows, cols)
	s.pos = pos[:n]
	s.sym = nil
	s.jh.remember(in.m)
	s.hess.remember(hess)
	s.jg.remember(jg)
}

// address maps the bound pattern's contributions to their slots in
// sym's packed layout; sym must be an analysis of pat.
func (s *kktSystem) address(sym *sparse.LDLSymbolic) {
	if s.sym == sym {
		return
	}
	s.sym, s.slot = sym, sym.Slots(s.pat)
	packed := make([]int32, len(s.pos))
	for k, p := range s.pos {
		packed[k] = s.slot[p]
	}
	s.outer, packed = packed[:s.nOuter], packed[s.nOuter:]
	s.hessPos, packed = packed[:len(s.hessQ)], packed[len(s.hessQ):]
	s.reg, packed = packed[:s.nx], packed[s.nx:]
	s.jgPos, s.dual = packed[:s.ng], packed[s.ng:]
	s.v = make([]float64, sym.NNZ())
}

// stamp writes the KKT values into the packed layout: the w-weighted
// outer products of the inequality Jacobian's rows, the Hessian, Jg, and
// −kktStaticReg on the dual diagonal — each slot's contributions summed
// in that order. The pair of a row's columns a ≥ b gets (w·J_a)·J_b.
func (s *kktSystem) stamp(in *ineqSystem, w []float64, hess, jg *sparse.CSC) {
	v := s.v
	clear(v)
	outer, rowPtr, valPos, jhVal := s.outer, in.rowPtr, in.valPos, in.m.Val
	t := 0
	for r, wr := range w {
		lo, hi := rowPtr[r], rowPtr[r+1]
		for p1 := lo; p1 < hi; p1++ {
			v1 := wr * jhVal[valPos[p1]]
			for p2 := lo; p2 <= p1; p2++ {
				v[outer[t]] += v1 * jhVal[valPos[p2]]
				t++
			}
		}
	}
	for k, p := range s.hessPos {
		v[p] += hess.Val[s.hessQ[k]]
	}
	for q, p := range s.jgPos {
		v[p] += jg.Val[q]
	}
	for _, p := range s.dual {
		v[p] += -kktStaticReg
	}
}

// saveReg copies the values of the primal-diagonal slots into base.
func (s *kktSystem) saveReg(base []float64) {
	for i, p := range s.reg {
		base[i] = s.v[p]
	}
}

// shiftReg writes base + dw into the primal-diagonal slots: after a
// stamp and saveReg, the stamp's values with δ_w·I added to the (1,1)
// block, every other slot untouched.
func (s *kktSystem) shiftReg(base []float64, dw float64) {
	for i, p := range s.reg {
		s.v[p] = base[i] + dw
	}
}

// matrix returns the stamped system as a new CSC matrix on the full
// symmetric pattern, each pair's value in both triangles.
func (s *kktSystem) matrix() *sparse.CSC {
	m := s.pat.Clone()
	for p, k := range s.slot {
		m.Val[p] = s.v[k]
	}
	return m
}
