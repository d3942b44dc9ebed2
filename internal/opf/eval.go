package opf

import (
	"math"
	"math/cmplx"
	"slices"
	"sync"

	"repro/internal/la"
	"repro/internal/mips"
	"repro/internal/sparse"
)

// This file is the solver-facing evaluation path: the same objective,
// constraint and Hessian values as the reference methods in opf.go,
// produced by evaluating the Matpower derivative formulas entry by entry
// instead of composing chains of complex sparse intermediates
// (Clone/DiagScale/AddScaled/T each allocate and sort). The reference
// implementations stay as the oracle — TestEvalMatchesReference pins the
// two paths against each other — and behind the exported
// Equality/Inequality/CostGrad seams.
//
// Every matrix here has a fixed sparsity pattern per problem structure:
// the Jacobian and Hessian patterns derive from the Ybus pattern, the
// rated branches' buses, the units with a nonzero cost curvature and the
// layout — all frozen at Prepare and unchanged by Perturb and the
// Rebind* derivations, which edit values only. An evalProgram compiles
// each matrix's entry sequence once per structure into a CSC pattern and
// a slot map (sparse.CompileSlots), and every evaluation after that
// zeroes its values and adds each entry at its slot, in the fixed entry
// order, with no per-entry bookkeeping. The per-point quantities —
// voltages, bus injections and the branch ends' flow derivatives — are
// computed once per iterate and shared by the equality, inequality and
// Hessian evaluations at it.

// evalProgram is the structural half of the evaluation path, compiled
// on the first evaluation of a prepared grid and shared, read-only, by
// every instance derived from it and every scratch bound to them.
type evalProgram struct {
	tpos      []int32 // Ybus entry -> its transpose entry (-1 if absent)
	costUnits []int   // units with a nonzero cost curvature: the cost block

	// Patterns with their slot maps, the entry sequences of evalEquality,
	// evalInequality and evalHessian.
	jg, jh, hess          *sparse.CSC
	jgPos, jhPos, hessPos []int32
}

// programCell holds the program of one prepared grid; Prepare makes it
// and every derived instance shares the pointer.
type programCell struct {
	once sync.Once
	p    *evalProgram
}

// program returns the grid's evaluation program, compiling it on first
// use.
func (o *OPF) program() *evalProgram {
	c := o.prog
	c.once.Do(func() { c.p = o.compileEval() })
	return c.p
}

// Entries per branch end in the Hessian's flow block: seven 4-entry
// d2Sbr emits and four 4-entry outer products.
const hessEndEntries = 7*4 + 4*4

// coords is a coordinate sequence under construction.
type coords struct{ rows, cols []int32 }

// at appends the (row, col) pairs ij holds, in order.
func (c *coords) at(ij ...int) {
	for k := 0; k < len(ij); k += 2 {
		c.rows, c.cols = append(c.rows, int32(ij[k])), append(c.cols, int32(ij[k+1]))
	}
}

// compileEval records the entry sequence of each evaluator — the order
// its value loop below adds in — and compiles it.
func (o *OPF) compileEval() *evalProgram {
	lay := o.Lay
	nb, nlr, va, vm := lay.NB, lay.NLRated, lay.VaOff, lay.VmOff
	y := o.Y.Ybus
	p := &evalProgram{tpos: transposePos(y)}
	var jg, jh, hess coords
	base := o.Case.BaseMVA
	for g, gen := range o.gens {
		if gen.Cost.Deriv2()*base*base != 0 {
			p.costUnits = append(p.costUnits, g)
			hess.at(lay.PgOff+g, lay.PgOff+g)
		}
	}
	// hessEntry is one (i, j) entry of the four voltage blocks, the
	// third one transposed.
	hessEntry := func(i, j int) { hess.at(va+i, va+j, vm+i, va+j, va+j, vm+i, vm+i, vm+j) }
	for j := 0; j < y.NCols; j++ {
		for q := y.ColPtr[j]; q < y.ColPtr[j+1]; q++ {
			i := y.RowIdx[q]
			jg.at(i, va+j, nb+i, va+j, i, vm+j, nb+i, vm+j)
			hessEntry(i, j)
		}
	}
	for i := 0; i < nb; i++ {
		jg.at(i, va+i, nb+i, va+i, i, vm+i, nb+i, vm+i)
		hess.at(va+i, va+i, vm+i, va+i, va+i, vm+i)
	}
	for g, b := range o.gbus {
		jg.at(b, lay.PgOff+g, nb+b, lay.QgOff+g)
	}
	jg.at(2*nb, va+o.refIdx)
	for e := 0; e < 2*nlr; e++ { // rated branch e/2, from end first
		f, t := o.ratedY.FIdx[e/2], o.ratedY.TIdx[e/2]
		row, cb := e/2, f // the flow row and the end's own bus
		if e%2 == 1 {
			row, cb = nlr+e/2, t
		}
		jh.at(row, va+f, row, va+t, row, vm+f, row, vm+t)
		for _, ij := range [7][2]int{{f, cb}, {t, cb}, {cb, f}, {cb, t}, {f, f}, {t, t}, {cb, cb}} {
			hessEntry(ij[0], ij[1])
		}
		for _, rc := range [4][2]int{{va, va}, {vm, va}, {va, vm}, {vm, vm}} {
			hess.at(rc[0]+f, rc[1]+f, rc[0]+f, rc[1]+t, rc[0]+t, rc[1]+f, rc[0]+t, rc[1]+t)
		}
	}
	p.jg, p.jgPos = sparse.CompileSlots(lay.NEq, lay.NX, jg.rows, jg.cols)
	p.jh, p.jhPos = sparse.CompileSlots(2*nlr, lay.NX, jh.rows, jh.cols)
	p.hess, p.hessPos = sparse.CompileSlots(lay.NX, lay.NX, hess.rows, hess.cols)
	return p
}

// evalScratch holds one solve's values on the grid's program and the
// buffers its problem callbacks reuse across iterations. Solve draws
// scratches from a package-level pool (one per concurrently running
// solve), so sweeps of one grid bind a scratch without allocating; a
// scratch that last served another grid resizes on binding.
type evalScratch struct {
	prog         *evalProgram
	jg, jh, hess *sparse.CSC // this scratch's values on prog's patterns

	// Per-point quantities at xAt; binding (ensure) empties xAt.
	xAt         la.Vector
	v, vn, ibus []complex128 // voltages, unit phasors, bus injections
	ginv        []float64    // 1/|V|
	ends        []branchEnd  // rated branch l's ends at 2l (from) and 2l+1 (to)

	sbus       []complex128
	lamC, dlam []complex128 // dual weights λp − iλq and (Yᴴ·diagV)·λ

	df, g, h la.Vector
}

var evalPool = sync.Pool{New: func() any { return new(evalScratch) }}

// resize returns s with length n, reallocating only when capacity is
// insufficient.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// valuesOn returns a matrix with pattern p and zeroed values of its own.
func valuesOn(p *sparse.CSC) *sparse.CSC {
	return &sparse.CSC{NRows: p.NRows, NCols: p.NCols, ColPtr: p.ColPtr, RowIdx: p.RowIdx, Val: make([]float64, len(p.RowIdx))}
}

// ensure binds sc to o: its grid's program, buffers sized to o's
// layout, and no cached point.
func (sc *evalScratch) ensure(o *OPF) {
	lay := o.Lay
	nb := lay.NB
	if prog := o.program(); sc.prog != prog {
		sc.prog = prog
		sc.jg, sc.jh, sc.hess = valuesOn(prog.jg), valuesOn(prog.jh), valuesOn(prog.hess)
	}
	sc.xAt = resize(sc.xAt, lay.NX)[:0]
	sc.v = resize(sc.v, nb)
	sc.vn = resize(sc.vn, nb)
	sc.ibus = resize(sc.ibus, nb)
	sc.ginv = resize(sc.ginv, nb)
	sc.ends = resize(sc.ends, 2*lay.NLRated)
	sc.sbus = resize(sc.sbus, nb)
	sc.lamC = resize(sc.lamC, nb)
	sc.dlam = resize(sc.dlam, nb)
	sc.df = resize(sc.df, lay.NX)
	sc.g = resize(sc.g, lay.NEq)
	sc.h = resize(sc.h, 2*lay.NLRated)
}

// transposePos maps each stored entry (i,j) of y to the position of
// (j,i), or -1 when the pattern is not symmetric there. Power-system
// Ybus patterns are structurally symmetric, so the -1 case is theory
// only. Single O(nnz) pass: as the outer column index j ascends, the
// transpose partners wanted from column i are exactly column i's rows
// in ascending order, so a per-column cursor suffices.
func transposePos(y *sparse.CSCComplex) []int32 {
	buf := make([]int32, len(y.RowIdx))
	cur := make([]int, y.NCols)
	copy(cur, y.ColPtr[:y.NCols])
	for j := 0; j < y.NCols; j++ {
		for p := y.ColPtr[j]; p < y.ColPtr[j+1]; p++ {
			i := y.RowIdx[p]
			c := cur[i]
			for c < y.ColPtr[i+1] && y.RowIdx[c] < j {
				c++
			}
			cur[i] = c
			if c < y.ColPtr[i+1] && y.RowIdx[c] == j {
				buf[p] = int32(c)
			} else {
				buf[p] = -1
			}
		}
	}
	return buf
}

// prepPoint refreshes the voltage-dependent quantities at x — per bus
// and per rated branch end — unless sc already holds them for x, bit
// for bit: the solver evaluates G, H and the Hessian at each iterate.
func (o *OPF) prepPoint(sc *evalScratch, x la.Vector) {
	if slices.EqualFunc(sc.xAt, x, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		return
	}
	lay := o.Lay
	nb := lay.NB
	for i := 0; i < nb; i++ {
		vm, va := x[lay.VmOff+i], x[lay.VaOff+i]
		sc.v[i] = cmplx.Rect(vm, va)
		a := cmplx.Abs(sc.v[i])
		if a == 0 {
			sc.vn[i] = 1
			sc.ginv[i] = 0
		} else {
			sc.vn[i] = sc.v[i] / complex(a, 0)
			sc.ginv[i] = 1 / a
		}
	}
	y := o.Y.Ybus
	clear(sc.ibus)
	for j := 0; j < y.NCols; j++ {
		vj := sc.v[j]
		for p := y.ColPtr[j]; p < y.ColPtr[j+1]; p++ {
			sc.ibus[y.RowIdx[p]] += y.Val[p] * vj
		}
	}
	for l := 0; l < lay.NLRated; l++ {
		o.endDerivs(sc, l, true, &sc.ends[2*l])
		o.endDerivs(sc, l, false, &sc.ends[2*l+1])
	}
	sc.xAt = append(sc.xAt[:0], x...)
}

// add4 adds four values at four slots, in order.
func add4(val []float64, pos []int32, a, b, c, d float64) {
	_ = pos[3]
	val[pos[0]] += a
	val[pos[1]] += b
	val[pos[2]] += c
	val[pos[3]] += d
}

// evalCost is costGrad writing the gradient into scratch storage.
func (o *OPF) evalCost(sc *evalScratch, x la.Vector) (float64, la.Vector) {
	lay := o.Lay
	base := o.Case.BaseMVA
	df := sc.df
	clear(df)
	f := 0.0
	for g, gen := range o.gens {
		pmw := x[lay.PgOff+g] * base
		f += o.on(g) * gen.Cost.Eval(pmw)
		df[lay.PgOff+g] = o.on(g) * gen.Cost.Deriv(pmw) * base
	}
	return f, df
}

// injections writes the net injection Sbus at x into s: the loads, then
// the dispatch of the units in service, in per unit.
func (o *OPF) injections(s []complex128, x la.Vector) {
	base := complex(o.Case.BaseMVA, 0)
	for i, b := range o.Case.Buses {
		s[i] = -complex(b.Pd, b.Qd) / base
	}
	for g, b := range o.gbus {
		s[b] += complex(o.on(g)*x[o.Lay.PgOff+g], o.on(g)*x[o.Lay.QgOff+g])
	}
}

// evalEquality evaluates [Re(mis); Im(mis); Va_ref − Va0] and its
// Jacobian. The dSbus/dV entries come from the Matpower formulas
// evaluated per stored Ybus entry:
//
//	dS/dVa[i,j] = 1i·V[i]·(δij·conj(Ibus[i]) − conj(Y[i,j]·V[j]))
//	dS/dVm[i,j] = V[i]·conj(Y[i,j]·Vn[j]) + δij·conj(Ibus[i])·Vn[i]
//
// with the δ terms added in a separate diagonal pass so correctness
// does not depend on Ybus storing every diagonal entry.
func (o *OPF) evalEquality(sc *evalScratch, x la.Vector) (la.Vector, *sparse.CSC) {
	lay := o.Lay
	nb := lay.NB
	o.prepPoint(sc, x)
	o.injections(sc.sbus, x)
	g := sc.g
	for i := 0; i < nb; i++ {
		mis := sc.v[i]*cmplx.Conj(sc.ibus[i]) - sc.sbus[i]
		g[i] = real(mis)
		g[nb+i] = imag(mis)
	}
	g[2*nb] = x[lay.VaOff+o.refIdx] - o.refVa

	y := o.Y.Ybus
	jv, pos := sc.jg.Val, sc.prog.jgPos
	clear(jv)
	k := 0
	for j := 0; j < y.NCols; j++ {
		vj, vnj := sc.v[j], sc.vn[j]
		for p := y.ColPtr[j]; p < y.ColPtr[j+1]; p++ {
			i := y.RowIdx[p]
			yv := y.Val[p]
			dva := complex(0, 1) * sc.v[i] * -cmplx.Conj(yv*vj)
			dvm := sc.v[i] * cmplx.Conj(yv*vnj)
			add4(jv, pos[k:], real(dva), imag(dva), real(dvm), imag(dvm))
			k += 4
		}
	}
	for i := 0; i < nb; i++ {
		ci := cmplx.Conj(sc.ibus[i])
		dva := complex(0, 1) * sc.v[i] * ci
		dvm := ci * sc.vn[i]
		add4(jv, pos[k:], real(dva), imag(dva), real(dvm), imag(dvm))
		k += 4
	}
	for gi := range o.gbus {
		jv[pos[k]] += -o.on(gi)   // dRe(mis)/dPg
		jv[pos[k+1]] += -o.on(gi) // dIm(mis)/dQg
		k += 2
	}
	jv[pos[k]] += 1 // reference angle row
	return g, sc.jg
}

// branchEnd carries the per-branch, per-end scalars the inequality and
// Hessian paths share: the end's flow s, and the four dS/dV entries at
// the from and to buses.
type branchEnd struct {
	f, t                   int
	s                      complex128
	dVaF, dVaT, dVmF, dVmT complex128
}

// endDerivs evaluates one branch end into e: yf/yt are the end's
// admittance row entries, own is the end's own bus (from bus for the
// from end).
func (o *OPF) endDerivs(sc *evalScratch, l int, own bool, e *branchEnd) {
	y := o.ratedY
	f, t := y.FIdx[l], y.TIdx[l]
	var yf, yt complex128
	if own {
		yf, yt = y.Yf.Vf[l], y.Yf.Vt[l]
	} else {
		yf, yt = y.Yt.Vf[l], y.Yt.Vt[l]
	}
	vf, vt := sc.v[f], sc.v[t]
	i := yf*vf + yt*vt // current into this end
	vo := vt           // the end's own voltage
	if own {
		vo = vf
	}
	ci := cmplx.Conj(i)
	j := complex(0, 1)
	e.f, e.t, e.s = f, t, vo*ci
	if own {
		e.dVaF = j * (ci*vf - vf*cmplx.Conj(yf*vf))
		e.dVaT = j * (-vf * cmplx.Conj(yt*vt))
		e.dVmF = vf*cmplx.Conj(yf*sc.vn[f]) + ci*sc.vn[f]
		e.dVmT = vf * cmplx.Conj(yt*sc.vn[t])
	} else {
		e.dVaT = j * (ci*vt - vt*cmplx.Conj(yt*vt))
		e.dVaF = j * (-vt * cmplx.Conj(yf*vf))
		e.dVmT = vt*cmplx.Conj(yt*sc.vn[t]) + ci*sc.vn[t]
		e.dVmF = vt * cmplx.Conj(yf*sc.vn[f])
	}
}

// evalInequality evaluates [|Sf|²−rate²; |St|²−rate²] and its Jacobian
// dA/dV = 2(Re S·Re dS + Im S·Im dS), four entries per branch end.
func (o *OPF) evalInequality(sc *evalScratch, x la.Vector) (la.Vector, *sparse.CSC) {
	nlr := o.Lay.NLRated
	o.prepPoint(sc, x)
	h := sc.h
	jv, pos := sc.jh.Val, sc.prog.jhPos
	clear(jv)
	for k := range sc.ends {
		e := &sc.ends[k]
		l := k / 2
		p, q := real(e.s), imag(e.s)
		row := l + (k%2)*nlr
		h[row] = p*p + q*q - o.rates2[l]
		add4(jv, pos[4*k:],
			2*(p*real(e.dVaF)+q*imag(e.dVaF)),
			2*(p*real(e.dVaT)+q*imag(e.dVaT)),
			2*(p*real(e.dVmF)+q*imag(e.dVmF)),
			2*(p*real(e.dVmT)+q*imag(e.dVmT)))
	}
	return h, sc.jh
}

// evalHessian evaluates ∇²f + Σλ∇²g + Σµ∇²h. The power-balance block
// folds the P and Q duals into one complex pass: the assembled real
// contribution is Re(G(λp)) + Im(G(λq)) = Re(G(λp − i·λq)) since the
// d2Sbus blocks are linear in λ — half the work of the two-pass
// reference. Entries follow the Matpower d2Sbus_dV2 identities per
// stored Ybus entry (E/F/C as in the reference), with the diagonal
// correction terms in a separate pass; the branch block walks each
// rated branch end once, adding the ≤7 positions of the d2Sbr terms
// and the 4 positions of the outer-product term. Without a flow
// multiplier per rated row (mu of another length) the flow block's
// entries stay stored zeros.
func (o *OPF) evalHessian(sc *evalScratch, x la.Vector, lam, mu la.Vector) *sparse.CSC {
	lay := o.Lay
	nb := lay.NB
	base := o.Case.BaseMVA
	o.prepPoint(sc, x)
	hv, pos := sc.hess.Val, sc.prog.hessPos
	clear(hv)
	k := 0

	// Cost block (diagonal in Pg). A dropped unit keeps its entry, as a
	// stored zero, so every outage assembles the intact pattern.
	for _, g := range sc.prog.costUnits {
		d2 := o.gens[g].Cost.Deriv2() * base * base
		hv[pos[k]] += o.on(g) * d2
		k++
	}

	// Power-balance block. dlam[c] = Σ_r conj(Y[r,c])·V[r]·λ[r] is
	// (Yᴴ·diagV)·λ accumulated per stored entry.
	y := o.Y.Ybus
	tpos := sc.prog.tpos
	for i := 0; i < nb; i++ {
		sc.lamC[i] = complex(lam[i], -lam[nb+i])
		sc.dlam[i] = 0
	}
	for j := 0; j < y.NCols; j++ {
		for p := y.ColPtr[j]; p < y.ColPtr[j+1]; p++ {
			r := y.RowIdx[p]
			sc.dlam[j] += cmplx.Conj(y.Val[p]) * sc.v[r] * sc.lamC[r]
		}
	}
	for j := 0; j < y.NCols; j++ {
		vj := sc.v[j]
		for p := y.ColPtr[j]; p < y.ColPtr[j+1]; p++ {
			i := y.RowIdx[p]
			var yt complex128
			if tp := tpos[p]; tp >= 0 {
				yt = y.Val[tp] // Y[j,i]
			}
			lvi := sc.lamC[i] * sc.v[i]
			cij := lvi * cmplx.Conj(y.Val[p]*vj) // C = diag(λV)·conj(Ybus·diagV)
			// D[i,j] = conj(Y[j,i])·V[j]; E = diag(conj(V))·D·diag(λ).
			eij := cmplx.Conj(sc.v[i]) * cmplx.Conj(yt) * vj * sc.lamC[j]
			cji := sc.lamC[j] * sc.v[j] * cmplx.Conj(yt*sc.v[i])
			gaa := eij + cij
			gva := complex(0, 1) * complex(sc.ginv[i], 0) * (eij - cij)
			gvv := complex(sc.ginv[i]*sc.ginv[j], 0) * (cij + cji)
			// Gav = Gvaᵀ: the third entry is (VaOff+j, VmOff+i).
			add4(hv, pos[k:], real(gaa), real(gva), real(gva), real(gvv))
			k += 4
		}
	}
	for i := 0; i < nb; i++ {
		ed := -cmplx.Conj(sc.v[i]) * sc.dlam[i]              // −conj(V)·(Dλ) on diag of E
		fd := -sc.lamC[i] * sc.v[i] * cmplx.Conj(sc.ibus[i]) // −λV·conj(Ibus) on diag of F
		gaa := ed + fd
		gva := complex(0, 1) * complex(sc.ginv[i], 0) * (ed - fd)
		hv[pos[k]] += real(gaa)
		hv[pos[k+1]] += real(gva)
		hv[pos[k+2]] += real(gva)
		k += 3
	}

	// Branch-flow block.
	nlr := lay.NLRated
	if nlr > 0 && len(mu) == 2*nlr {
		for e := range sc.ends {
			ml := mu[e/2+(e%2)*nlr]
			o.branchHessEnd(sc, hv, pos[k:k+hessEndEntries], e/2, e%2 == 0, ml, &sc.ends[e])
			k += hessEndEntries
		}
	}
	return sc.hess
}

// branchHessEnd adds one branch end's contribution to the four Hessian
// blocks at its hessEndEntries slots: the d2Sbr term (lam2 = µ·conj(s))
// expanded from its two A-matrix entries, plus the outer-product term
// 2µ·dSᵀ·conj(dS). All added values are 2·Re(term), matching
// d2ASbr_dV2.
func (o *OPF) branchHessEnd(sc *evalScratch, hv []float64, pos []int32, l int, own bool, ml float64, e *branchEnd) {
	y := o.ratedY
	var yf, yt complex128
	if own {
		yf, yt = y.Yf.Vf[l], y.Yf.Vt[l]
	} else {
		yf, yt = y.Yt.Vf[l], y.Yt.Vt[l]
	}
	f, t := e.f, e.t
	cb := t // column of the A-matrix entries: the end's own bus
	if own {
		cb = f
	}
	lam2 := cmplx.Conj(e.s) * complex(ml, 0)
	a1 := cmplx.Conj(yf) * lam2 // A[f, cb]
	a2 := cmplx.Conj(yt) * lam2 // A[t, cb]
	vcb := sc.v[cb]
	b1 := cmplx.Conj(sc.v[f]) * a1 * vcb // B[f, cb]
	b2 := cmplx.Conj(sc.v[t]) * a2 * vcb // B[t, cb]
	gf := complex(sc.ginv[f], 0)
	gt := complex(sc.ginv[t], 0)
	gcb := complex(sc.ginv[cb], 0)
	j := complex(0, 1)

	// emit adds 2·Re of the (aa, va, vv) values at the (i,j) entries of
	// the aa, va and vv blocks and the transposed av entry, the four
	// slots from k.
	emit := func(k int, aa, hva, vv complex128) {
		add4(hv, pos[k:], 2*real(aa), 2*real(hva), 2*real(hva), 2*real(vv))
	}
	// B and Bᵀ entries.
	emit(0, b1, j*gf*b1, gf*gcb*b1)
	emit(4, b2, j*gt*b2, gt*gcb*b2)
	emit(8, b1, -j*gcb*b1, gcb*gf*b1)
	emit(12, b2, -j*gcb*b2, gcb*gt*b2)
	// Diagonal corrections: −diag(dd) at the A rows, −diag(ee) at cb.
	emit(16, -b1, -j*gf*b1, 0)
	emit(20, -b2, -j*gt*b2, 0)
	emit(24, -(b1 + b2), j*gcb*(b1+b2), 0)

	// Outer-product term: w·dSa[r]·conj(dSb[c]) at (r,c) for the four
	// bus pairs, for each (block row deriv, block col deriv) pairing.
	w := complex(ml, 0)
	outer := func(k int, a1, a2, b1, b2 complex128) {
		cb1, cb2 := cmplx.Conj(b1), cmplx.Conj(b2)
		add4(hv, pos[k:], 2*real(w*a1*cb1), 2*real(w*a1*cb2), 2*real(w*a2*cb1), 2*real(w*a2*cb2))
	}
	outer(28, e.dVaF, e.dVaT, e.dVaF, e.dVaT) // haa
	outer(32, e.dVmF, e.dVmT, e.dVaF, e.dVaT) // hva
	outer(36, e.dVaF, e.dVaT, e.dVmF, e.dVmT) // hav
	outer(40, e.dVmF, e.dVmT, e.dVmF, e.dVmT) // hvv
}

// problemWith binds the solver-facing evaluation path to sc.
func (o *OPF) problemWith(sc *evalScratch) *mips.Problem {
	sc.ensure(o)
	return &mips.Problem{
		NX: o.Lay.NX,
		F: func(x la.Vector) (float64, la.Vector) {
			return o.evalCost(sc, x)
		},
		G: func(x la.Vector) (la.Vector, *sparse.CSC) {
			return o.evalEquality(sc, x)
		},
		H: func(x la.Vector) (la.Vector, *sparse.CSC) {
			if o.Lay.NLRated == 0 {
				return nil, nil
			}
			return o.evalInequality(sc, x)
		},
		Hess: func(x la.Vector, lam, mu la.Vector) *sparse.CSC {
			return o.evalHessian(sc, x, lam, mu)
		},
		XMin: o.xmin,
		XMax: o.xmax,
	}
}
