package mips

import (
	"sync"

	"repro/internal/la"
	"repro/internal/sparse"
)

// Arena owns every buffer the interior-point iteration reuses: the
// dense work vectors, the two pattern-compiled assemblers (the full
// inequality Jacobian and the Newton KKT matrix), the row-major view of
// the inequality Jacobian, and the factor slot holding preallocated LU
// storage. After the first iteration compiles the assemblers and binds
// the slot, a Step performs zero heap allocations — everything the hot
// loop touches lives here (the alloc harness in the tests pins this).
//
// An Arena serves one solve at a time. Solve draws arenas from a
// package-level pool, so a worker goroutine sweeping many instances of
// one grid keeps hitting the same warm arena: the compiled assembly
// programs and bound factors carry across solves of the same problem
// structure, and the first iteration of a warm solve is as cheap as any
// other. Size or pattern changes are absorbed transparently — vectors
// regrow and assemblers recompile on the next pass.
type Arena struct {
	// Dense per-iteration vectors. lx/tmpNx are nx-sized, w/tmpNiq/
	// dz/dmu/jdx/hFull are niq-sized, rhs/dxdlam/solveWork span the KKT
	// system (nx+neq). Every entry is overwritten before use each
	// iteration, so stale values from a previous solve are harmless.
	lx, tmpNx               la.Vector
	w, tmpNiq, dz, dmu, jdx la.Vector
	hFull                   la.Vector
	rhs, dxdlam, solveWork  la.Vector

	jhNR, jhNC int
	jhAsm      *sparse.Assembler // [Jh; bound rows], niq × nx
	kktN       int
	kktAsm     *sparse.Assembler // Newton KKT matrix, (nx+neq)²
	outerVals  la.Vector         // gathered Jh row for AppendOuter, ≤ nx wide
	jhView     jhRowView
	slot       sparse.FactorSlot
	zeroHess   *sparse.CSC // cached empty nx×nx Hessian (Hess == nil)
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

// ensureIneq sizes the inequality-row buffers and assembler. Called
// once per solve, as soon as the first constraint evaluation reveals
// the full inequality count.
func (a *Arena) ensureIneq(niq, nx int) {
	a.w = grow(a.w, niq)
	a.tmpNiq = grow(a.tmpNiq, niq)
	a.dz = grow(a.dz, niq)
	a.dmu = grow(a.dmu, niq)
	a.jdx = grow(a.jdx, niq)
	a.hFull = grow(a.hFull, niq)
	if a.jhAsm == nil || a.jhNR != niq || a.jhNC != nx {
		a.jhAsm = sparse.NewAssembler(niq, nx)
		a.jhNR, a.jhNC = niq, nx
	}
}

// ensureKKT sizes the KKT-system buffers and assembler.
func (a *Arena) ensureKKT(nx, neq int) {
	n := nx + neq
	a.lx = grow(a.lx, nx)
	a.tmpNx = grow(a.tmpNx, nx)
	a.rhs = grow(a.rhs, n)
	a.dxdlam = grow(a.dxdlam, n)
	a.solveWork = grow(a.solveWork, n)
	a.outerVals = grow(a.outerVals, nx)
	if a.kktAsm == nil || a.kktN != n {
		a.kktAsm = sparse.NewAssembler(n, n)
		a.kktN = n
	}
	if a.zeroHess == nil || a.zeroHess.NRows != nx {
		a.zeroHess = sparse.NewBuilder(nx, nx).ToCSC()
	}
}

// jhRowView is a pattern-keyed transpose view of the row-per-constraint
// inequality Jacobian: rowPtr/colIdx walk J row by row (ascending
// variable within each row, matching the transpose's column order) and
// valPos maps each entry back to its slot in the CSC value array. The
// JᵀWJ product reads each iteration's fresh values through valPos, so
// the per-iteration jh.T() materialization the product used to pay is
// replaced by a view built once per sparsity pattern.
type jhRowView struct {
	// Snapshot of the viewed pattern; update rebuilds only when the
	// live matrix deviates from it (an O(nnz) integer compare).
	colPtr []int
	rowIdx []int

	rowPtr []int   // len nrows+1
	colIdx []int32 // variable index of each entry, row-major
	valPos []int32 // index into the viewed matrix's Val
}

func (v *jhRowView) matches(j *sparse.CSC) bool {
	if len(v.colPtr) != len(j.ColPtr) || len(v.rowIdx) != len(j.RowIdx) {
		return false
	}
	for i, p := range j.ColPtr {
		if v.colPtr[i] != p {
			return false
		}
	}
	for i, r := range j.RowIdx {
		if v.rowIdx[i] != r {
			return false
		}
	}
	return true
}

// update rebuilds the view if j's pattern changed since the last call.
func (v *jhRowView) update(j *sparse.CSC) {
	if v.matches(j) {
		return
	}
	v.colPtr = append(v.colPtr[:0], j.ColPtr...)
	v.rowIdx = append(v.rowIdx[:0], j.RowIdx...)
	nr, nnz := j.NRows, len(j.RowIdx)
	if cap(v.rowPtr) < nr+1 {
		v.rowPtr = make([]int, nr+1)
	}
	v.rowPtr = v.rowPtr[:nr+1]
	for i := range v.rowPtr {
		v.rowPtr[i] = 0
	}
	for _, r := range j.RowIdx {
		v.rowPtr[r+1]++
	}
	for r := 0; r < nr; r++ {
		v.rowPtr[r+1] += v.rowPtr[r]
	}
	if cap(v.colIdx) < nnz {
		v.colIdx = make([]int32, nnz)
		v.valPos = make([]int32, nnz)
	}
	v.colIdx = v.colIdx[:nnz]
	v.valPos = v.valPos[:nnz]
	fill := make([]int, nr)
	copy(fill, v.rowPtr[:nr])
	for col := 0; col < j.NCols; col++ {
		for p := j.ColPtr[col]; p < j.ColPtr[col+1]; p++ {
			r := j.RowIdx[p]
			v.colIdx[fill[r]] = int32(col)
			v.valPos[fill[r]] = int32(p)
			fill[r]++
		}
	}
}
