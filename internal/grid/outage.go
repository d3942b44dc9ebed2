package grid

import (
	"fmt"
	"slices"

	"repro/internal/sparse"
)

// This file implements the outage topology deltas that the SC-OPF
// contingency screening derives scenarios from: instead of rebuilding
// the case and its admittance matrices per scenario, Case.WithoutBranch
// and Case.WithoutGen produce cheap views of the outaged case and
// YMatrices.DropBranch subtracts the outaged branch's stamp from the
// prepared matrices. All are exact: every value of the delta'd matrices
// is bit-identical to a fresh MakeYbus of the outaged case, which is what
// lets the screening engine pin its results to the naive per-scenario
// rebuild (see internal/scopf). Ybus alone differs, and only in pattern:
// it keeps the intact one, storing the outaged branch's entries as
// explicit zeros, so an outage's KKT systems share the intact system's
// sparsity pattern and symbolic analysis (see internal/opf). Connected and
// ConnectedWithout classify outage topologies that split the network —
// islanding scenarios the screening engine rejects before wasting
// solver time on a structurally infeasible AC-OPF.

// WithoutBranch returns a view of the case with branch l (an index into
// c.Branches) out of service. The branch list is a fresh copy; buses,
// generators and the Normalize index are shared with c, so the view
// costs O(nl) and needs no re-Normalize. Treat the shared fields as
// read-only — Clone the view before mutating loads (Perturb does).
func (c *Case) WithoutBranch(l int) *Case {
	if l < 0 || l >= len(c.Branches) {
		panic(fmt.Sprintf("grid: WithoutBranch index %d outside %d branches", l, len(c.Branches)))
	}
	cp := *c
	cp.Branches = append([]Branch(nil), c.Branches...)
	cp.Branches[l].Status = false
	return &cp
}

// WithoutGen returns a view of the case with generator g (an index into
// c.Gens) out of service — the generator-outage analogue of
// WithoutBranch. The generator list is a fresh copy; buses, branches
// and the Normalize index are shared with c. Admittance matrices are
// untouched by a generator drop (generators enter only through MakeSbus
// and the OPF variable layout), so MakeYbus of the view is bit-identical
// to MakeYbus of c.
func (c *Case) WithoutGen(g int) *Case {
	if g < 0 || g >= len(c.Gens) {
		panic(fmt.Sprintf("grid: WithoutGen index %d outside %d generators", g, len(c.Gens)))
	}
	cp := *c
	cp.Gens = append([]Gen(nil), c.Gens...)
	cp.Gens[g].Status = false
	return &cp
}

// Connected reports whether every bus is reachable from bus 0 over the
// in-service branches — the from-scratch BFS reference the screening
// package's incremental connectivity checks are pinned against, and the
// islanding classifier for outage topology views (a disconnected
// WithoutBranch view is an islanding scenario, not a solvable AC-OPF).
func Connected(c *Case) bool {
	return ConnectedWithout(c, nil)
}

// ConnectedWithout reports whether the network stays connected with the
// given additional branches (indices into c.Branches) treated as out of
// service on top of the case's own Status flags. A nil/empty skip set
// checks the case as-is; duplicate or already-inactive skip entries are
// harmless. This is the multi-outage primitive behind N-1 bridge
// filtering and N-2 islanding classification.
func ConnectedWithout(c *Case, skip []int) bool {
	nb := c.NB()
	if nb == 0 {
		return false
	}
	skipped := func(l int) bool {
		for _, s := range skip {
			if s == l {
				return true
			}
		}
		return false
	}
	adj := make([][]int, nb)
	for l, br := range c.Branches {
		if !br.Status || skipped(l) {
			continue
		}
		f := c.BusIndex(br.From)
		t := c.BusIndex(br.To)
		adj[f] = append(adj[f], t)
		adj[t] = append(adj[t], f)
	}
	seen := make([]bool, nb)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == nb
}

// WithoutRow returns a copy of m with row l removed.
func (m *BranchMat) WithoutRow(l int) *BranchMat {
	return &BranchMat{
		NB: m.NB,
		F:  dropAt(m.F, l), T: dropAt(m.T, l),
		Vf: dropAt(m.Vf, l), Vt: dropAt(m.Vt, l),
	}
}

// dropAt returns a copy of s without element l.
func dropAt[E any](s []E, l int) []E {
	return slices.Delete(slices.Clone(s), l, l+1)
}

// DropBranch returns the admittance matrices of the case with in-service
// branch l (an index into the Yf/Yt rows, i.e. ActiveBranches order)
// outaged. Yf/Yt lose row l (branch stamps are row-independent) and are
// bit-identical to MakeYbus on the outaged case. Ybus keeps y's pattern —
// the one deliberate difference from a rebuild: the entries the branch
// alone stamped stay stored, as explicit zeros, so every KKT system of
// the outaged case has the intact case's sparsity pattern and factors on
// its analysis. Every value is a rebuild's: the only columns a branch
// touches — its from- and to-bus columns — are recompiled from the
// surviving stamps in MakeYbus's exact accumulation order, so even the
// floating-point summation of parallel branches and shunts matches, and
// every other column is copied unchanged (builder compilation is
// column-local). c must be the case y was built from (it supplies the bus
// shunts and BaseMVA).
func (y *YMatrices) DropBranch(c *Case, l int) *YMatrices {
	nl := y.Yf.NL()
	if l < 0 || l >= nl {
		panic(fmt.Sprintf("grid: DropBranch row %d outside %d active branches", l, nl))
	}
	old := y.Ybus
	vals := slices.Clone(old.Val)
	for _, j := range []int{y.Yf.F[l], y.Yf.T[l]} {
		col := y.recompileColumn(c, l, j)
		q := 0 // the recompiled column's rows are a sorted subset of column j's
		for p := old.ColPtr[j]; p < old.ColPtr[j+1]; p++ {
			vals[p] = 0
			if q < len(col.RowIdx) && col.RowIdx[q] == old.RowIdx[p] {
				vals[p] = col.Val[q]
				q++
			}
		}
	}
	return &YMatrices{
		Ybus: &sparse.CSCComplex{NRows: old.NRows, NCols: old.NCols, ColPtr: old.ColPtr, RowIdx: old.RowIdx, Val: vals},
		Yf:   y.Yf.WithoutRow(l), Yt: y.Yt.WithoutRow(l),
		FIdx: dropAt(y.FIdx, l), TIdx: dropAt(y.TIdx, l),
	}
}

// recompileColumn rebuilds Ybus column col as MakeYbus would with active
// branch skip removed: the surviving branch stamps (recovered from the
// Yf/Yt rows) and the bus shunt are appended in MakeYbus's append order
// and compiled through the same builder path, so sorting and duplicate
// summation are bit-identical to a full rebuild of the outaged case.
func (y *YMatrices) recompileColumn(c *Case, skip, col int) *sparse.CSCComplex {
	b := sparse.NewBuilderC(c.NB(), 1)
	for k := 0; k < y.Yf.NL(); k++ {
		if k == skip {
			continue
		}
		fk, tk := y.Yf.F[k], y.Yf.T[k]
		// MakeYbus appends (f,f)=yff, (f,t)=yft, (t,f)=ytf, (t,t)=ytt per
		// branch; keep that order among the entries landing in this column.
		if fk == col {
			b.Append(fk, 0, y.Yf.Vf[k]) // yff
		}
		if tk == col {
			b.Append(fk, 0, y.Yf.Vt[k]) // yft
		}
		if fk == col {
			b.Append(tk, 0, y.Yt.Vf[k]) // ytf
		}
		if tk == col {
			b.Append(tk, 0, y.Yt.Vt[k]) // ytt
		}
	}
	if bus := c.Buses[col]; bus.Gs != 0 || bus.Bs != 0 {
		b.Append(col, 0, complex(bus.Gs, bus.Bs)/complex(c.BaseMVA, 0))
	}
	return b.ToCSC()
}
