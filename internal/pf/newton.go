// Package pf implements the Newton–Raphson AC power flow in polar
// coordinates. It is the validation substrate of the repository: the
// synthetic case generator uses it to certify that generated systems have
// a solvable operating point, and tests use it to cross-check the OPF
// solution (a solved OPF must also satisfy the power flow).
package pf

import (
	"fmt"
	"math/cmplx"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/sparse"
)

// Options controls the Newton iteration.
type Options struct {
	Tol     float64 // infinity-norm mismatch tolerance in pu (default 1e-8)
	MaxIter int     // default 30
}

func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter == 0 {
		o.MaxIter = 30
	}
	return o
}

// Result is a solved power flow.
type Result struct {
	Converged  bool
	Iterations int
	Vm         []float64 // pu
	Va         []float64 // radians
	Pg, Qg     []float64 // per-unit dispatch of in-service generators,
	// with slack P and PV/slack Q back-filled from the solution
	MaxMismatch float64
}

// Solve runs a Newton–Raphson power flow on the case. Bus types determine
// the unknowns: Va at PV+PQ buses, Vm at PQ buses. Generator setpoints
// (Pg and Vg) are taken from the case data.
func Solve(c *grid.Case, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	nb := c.NB()
	y := grid.MakeYbus(c)

	// Initial voltage: flat-ish start from case data; generator buses take
	// their setpoint magnitude.
	vm := make([]float64, nb)
	va := make([]float64, nb)
	for i, b := range c.Buses {
		vm[i] = b.Vm
		if vm[i] <= 0 {
			vm[i] = 1
		}
		va[i] = grid.Deg2Rad(b.Va)
	}
	gens := c.ActiveGens()
	gbus := grid.GenBusIdx(c)
	for gi, g := range gens {
		if g.Vg > 0 {
			vm[gbus[gi]] = g.Vg
		}
	}

	// Scheduled injections: generator P (Q unknown at PV buses).
	pg := make([]float64, len(gens))
	qg := make([]float64, len(gens))
	for gi, g := range gens {
		pg[gi] = g.Pg / c.BaseMVA
		qg[gi] = g.Qg / c.BaseMVA
	}
	sbus := grid.MakeSbus(c, pg, qg)

	// Unknown index sets.
	var pvpq, pq []int
	for i, b := range c.Buses {
		switch b.Type {
		case grid.PQ:
			pvpq = append(pvpq, i)
			pq = append(pq, i)
		case grid.PV:
			pvpq = append(pvpq, i)
		}
	}
	npv := len(pvpq)
	npq := len(pq)
	n := npv + npq
	if n == 0 {
		return nil, fmt.Errorf("pf: case %q has no unknowns", c.Name)
	}
	posA := make(map[int]int, npv) // bus -> row for P equations / Va vars
	for k, i := range pvpq {
		posA[i] = k
	}
	posM := make(map[int]int, npq) // bus -> row offset for Q / Vm vars
	for k, i := range pq {
		posM[i] = k
	}

	res := &Result{Vm: vm, Va: va}
	// The Jacobian pattern is fixed across Newton iterations (it mirrors
	// the Ybus structure), so one symbolic analysis serves the whole
	// solve: the first Jacobian is analyzed with its own values choosing
	// the pivots, and later ones refactor into the analysis's factors.
	var (
		sym *sparse.Symbolic
		fac *sparse.LUFactors
		ws  *sparse.RefactorWorkspace
	)
	for iter := 0; iter <= opt.MaxIter; iter++ {
		v := grid.Voltage(vm, va)
		mis := grid.PowerMismatch(y, v, sbus)
		f := make(la.Vector, n)
		for k, i := range pvpq {
			f[k] = real(mis[i])
		}
		for k, i := range pq {
			f[npv+k] = imag(mis[i])
		}
		res.MaxMismatch = f.NormInf()
		res.Iterations = iter
		if res.MaxMismatch < opt.Tol {
			res.Converged = true
			break
		}
		if iter == opt.MaxIter {
			break
		}
		dVa, dVm := grid.DSbusDV(y.Ybus, v)
		jb := sparse.NewBuilder(n, n)
		appendBlock := func(m *sparse.CSCComplex, im bool, rows map[int]int, rowOff int, cols map[int]int, colOff int) {
			for j := 0; j < m.NCols; j++ {
				cj, ok := cols[j]
				if !ok {
					continue
				}
				for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
					ri, ok := rows[m.RowIdx[p]]
					if !ok {
						continue
					}
					val := real(m.Val[p])
					if im {
						val = imag(m.Val[p])
					}
					jb.Append(rowOff+ri, colOff+cj, val)
				}
			}
		}
		appendBlock(dVa, false, posA, 0, posA, 0)    // dP/dVa
		appendBlock(dVm, false, posA, 0, posM, npv)  // dP/dVm
		appendBlock(dVa, true, posM, npv, posA, 0)   // dQ/dVa
		appendBlock(dVm, true, posM, npv, posM, npv) // dQ/dVm
		jac := jb.ToCSC()
		if sym == nil || sym.RefactorInto(fac, ws, jac) != nil {
			// First iteration, or a frozen pivot has decayed: re-pick them.
			var err error
			if sym, fac, err = sparse.Analyze(jac, sparse.OrderRCM, 1.0); err != nil {
				return res, fmt.Errorf("pf: singular Jacobian at iteration %d: %w", iter, err)
			}
			ws = sym.NewRefactorWorkspace()
		}
		dx := fac.Solve(f)
		for k, i := range pvpq {
			va[i] -= dx[k]
		}
		for k, i := range pq {
			vm[i] -= dx[npv+k]
		}
	}

	// Back-fill generator outputs from the solved voltages: slack bus P,
	// and Q at every generator bus, split evenly among co-located units.
	v := grid.Voltage(vm, va)
	ib := y.Ybus.MulVec(v)
	inj := make([]complex128, nb)
	for i := range inj {
		inj[i] = v[i]*cmplx.Conj(ib[i]) + complex(c.Buses[i].Pd, c.Buses[i].Qd)/complex(c.BaseMVA, 0)
	}
	genAt := make(map[int][]int)
	for gi, b := range gbus {
		genAt[b] = append(genAt[b], gi)
	}
	for b, gis := range genAt {
		share := 1 / float64(len(gis))
		for _, gi := range gis {
			if c.Buses[b].Type == grid.Ref {
				pg[gi] = real(inj[b]) * share
			}
			if c.Buses[b].Type != grid.PQ {
				qg[gi] = imag(inj[b]) * share
			}
		}
	}
	res.Pg, res.Qg = pg, qg
	if !res.Converged {
		return res, fmt.Errorf("pf: no convergence after %d iterations (mismatch %.3e)", opt.MaxIter, res.MaxMismatch)
	}
	return res, nil
}
