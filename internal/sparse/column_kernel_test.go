package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// The column-at-a-time LDLᵀ kernel the target-supernode kernel replaced,
// kept as the reference TestLDLMatchesColumnKernel and
// FuzzLDLMatchesColumnKernel compare FactorInto with bit for bit. Column
// k is gathered from (A+Aᵀ)/2 into an n-length accumulator, updated by
// one op per source supernode with L(k,·) ≠ 0 — in place when the op's
// rows are consecutive, directly when the source is one column wide,
// else through a zeroed panel buffer scattered once — then scaled by its
// pivot.

// columnOp is one update of a column k by a source supernode: its member
// columns c0..e (e is the supernode's last column, or k-1 when k lies
// inside it), each over its trailing ln rows — rows k and below, the
// same row list for every member — which end at lx[end] of column e.
type columnOp struct {
	c0, e, end, ln int
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

// columnProgram is the column kernel's compiled form of an analysis.
type columnProgram struct {
	gdiag      []int
	gptr       []int
	gpos, grow []int
	opPtr      []int
	ops        []columnOp
	maxPanel   int
}

func compileColumns(s *LDLSymbolic) *columnProgram {
	n := s.n
	cp := &columnProgram{gdiag: make([]int, n), gptr: make([]int, n+1), opPtr: make([]int, n+1)}
	for k := range cp.gdiag {
		cp.gdiag[k] = -1
	}
	colPtr, rowIdx := s.pat.colPtr, s.pat.rowIdx
	for c := 0; c < n; c++ {
		for p := colPtr[c]; p < colPtr[c+1]; p++ {
			if i, k := s.pinv[rowIdx[p]], s.pinv[c]; i == k {
				cp.gdiag[k] = p
			} else {
				cp.gptr[min(i, k)+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		cp.gptr[k+1] += cp.gptr[k]
	}
	cp.gpos = make([]int, cp.gptr[n])
	cp.grow = make([]int, cp.gptr[n])
	next := slices.Clone(cp.gptr[:n])
	for c := 0; c < n; c++ {
		for p := colPtr[c]; p < colPtr[c+1]; p++ {
			if i, k := s.pinv[rowIdx[p]], s.pinv[c]; i != k {
				i, k = max(i, k), min(i, k)
				cp.gpos[next[k]], cp.grow[next[k]] = p, i
				next[k]++
			}
		}
	}

	ns := len(s.snStart) - 1
	for sn := 0; sn < ns; sn++ {
		c0, e := s.snStart[sn], s.snStart[sn+1]-1
		for k := c0 + 1; k <= e; k++ {
			cp.opPtr[k+1]++
		}
		for _, k := range s.li[s.lp[e]:s.lp[e+1]] {
			cp.opPtr[k+1]++
		}
	}
	for k := 0; k < n; k++ {
		cp.opPtr[k+1] += cp.opPtr[k]
	}
	cp.ops = make([]columnOp, cp.opPtr[n])
	copy(next, cp.opPtr[:n])
	add := func(k, c0, e, ln int) {
		end := s.lp[e+1]
		op := columnOp{c0: c0, e: e, end: end, ln: ln, kind: opPanel}
		switch rows := s.li[end-ln : end]; {
		case rows[ln-1]-rows[0] == ln-1:
			op.kind = opDense
		case c0 == e:
			op.kind = opScalar
		default:
			cp.maxPanel = max(cp.maxPanel, ln)
		}
		cp.ops[next[k]] = op
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
	return cp
}

// factorColumns factors a (of s's pattern) with the column kernel into
// fresh factors.
func factorColumns(s *LDLSymbolic, a *CSC) (*LDLFactors, error) {
	cp := compileColumns(s)
	f := &LDLFactors{sym: s, lx: make([]float64, len(s.li)), d: make([]float64, s.n)}
	x, tmp := make([]float64, s.n), make([]float64, cp.maxPanel)
	lx, d, li, lp := f.lx, f.d, s.li, s.lp
	for k := 0; k < s.n; k++ {
		colMax := 0.0
		for _, v := range a.Val[a.ColPtr[s.q[k]]:a.ColPtr[s.q[k]+1]] {
			if t := math.Abs(v); t > colMax {
				colMax = t
			}
		}
		if p := cp.gdiag[k]; p >= 0 {
			x[k] = a.Val[p]
		}
		for g := cp.gptr[k]; g < cp.gptr[k+1]; g++ {
			x[cp.grow[g]] += 0.5 * a.Val[cp.gpos[g]]
		}
		for _, op := range cp.ops[cp.opPtr[k]:cp.opPtr[k+1]] {
			rows := li[op.end-op.ln : op.end]
			switch op.kind {
			case opDense:
				columnPanelUpdate(x[rows[0]:rows[0]+op.ln], lx, lp, d, op.c0, op.e)
			case opScalar:
				seg := lx[op.end-op.ln : op.end]
				u := -d[op.e] * seg[0]
				for t, r := range rows {
					x[r] += seg[t] * u
				}
			default:
				buf := tmp[:op.ln]
				clear(buf)
				columnPanelUpdate(buf, lx, lp, d, op.c0, op.e)
				for t, r := range rows {
					x[r] += buf[t]
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
			return nil, ErrSingular
		}
		if math.Abs(dk) < boostPivotRel*amax {
			dk = math.Copysign(boostPivotRel*amax, dk)
		}
		d[k] = dk
		inv := 1 / dk
		for t, r := range rows {
			lx[lp[k]+t] = x[r] * inv
			x[r] = 0
		}
	}
	return f, nil
}

// columnPanelUpdate adds −Σ L(k,j)·d_j·L(rows,j) over the member columns j =
// j0..e of one supernode into acc, which is aligned with the trailing
// len(acc) rows of every member column (the first of them row k). Four
// members per pass: acc is read and written once per four L-segment
// streams.
func columnPanelUpdate(acc, lx []float64, lp []int, d []float64, j, e int) {
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

// matchColumnKernel factors a on s with FactorInto and with the column
// kernel and describes the first difference: the ErrSingular verdict, a
// pivot or an entry of L (bit for bit), or the negative-pivot count.
func matchColumnKernel(s *LDLSymbolic, a *CSC) error {
	want, werr := factorColumns(s, a)
	var got LDLFactors
	gerr := s.FactorInto(&got, a)
	if (werr == nil) != (gerr == nil) {
		return fmt.Errorf("FactorInto returned %v, the column kernel %v", gerr, werr)
	}
	if werr != nil {
		return nil
	}
	for k := range want.d {
		if math.Float64bits(got.d[k]) != math.Float64bits(want.d[k]) {
			return fmt.Errorf("pivot %d: %v, the column kernel %v", k, got.d[k], want.d[k])
		}
	}
	for p := range want.lx {
		if math.Float64bits(got.lx[p]) != math.Float64bits(want.lx[p]) {
			return fmt.Errorf("L entry %d (row %d): %v, the column kernel %v", p, s.li[p], got.lx[p], want.lx[p])
		}
	}
	if g, w := got.NegativePivots(), want.NegativePivots(); g != w {
		return fmt.Errorf("%d negative pivots, the column kernel %d", g, w)
	}
	return nil
}

// signedZero is a 6×6 system, natural order, on which the sign of a zero
// decides a pivot's sign: supernode {0, 1} updates column 3 over the
// scattered rows {3, 5} through a zeroed buffer, with L(3,0) = L(3,1) = 0
// stored explicitly, and A(3,3) = −0. The column kernel leaves
// −0 + (0 + (−0)) = +0 on the diagonal, which the pivot boost turns into
// a positive pivot; adding the update in place would leave −0 and a
// negative one.
func signedZero() *CSC {
	b := NewBuilder(6, 6)
	for _, e := range [][3]float64{{0, 0, 4}, {1, 1, 4}, {2, 2, 1}, {3, 3, 0}, {4, 4, 1}, {5, 5, 10},
		{1, 0, 1}, {3, 0, 0}, {5, 0, 1}, {3, 1, 0}, {5, 1, 1}, {5, 3, 1}} {
		i, j := int(e[0]), int(e[1])
		b.Append(i, j, e[2])
		if i != j {
			b.Append(j, i, e[2])
		}
	}
	a := b.ToCSC()
	for p := a.ColPtr[3]; p < a.ColPtr[4]; p++ {
		if a.RowIdx[p] == 3 {
			a.Val[p] = negZero
		}
	}
	return a
}

// kernelFixture is one named synthetic matrix of the kernel tests.
type kernelFixture struct {
	Name string
	A    *CSC
}

// kernelFixtures returns the synthetic matrices the kernel tests run on:
// random quasi-definite systems, mid-elimination panels, dense tails and
// a collapsing column, drawn from seed.
func kernelFixtures(seed int64) []kernelFixture {
	r := rand.New(rand.NewSource(seed))
	fx := []kernelFixture{{"collapsing", collapsing(7, 1.3)}, {"signed zero", signedZero()}}
	for i := 0; i < 6; i++ {
		fx = append(fx,
			kernelFixture{fmt.Sprintf("quasi-definite %d", i), randQuasiDefPattern(r, 3+r.Intn(90)).build(r)},
			kernelFixture{fmt.Sprintf("panel %d", i), panelSystem(r, 30+r.Intn(60), 4+r.Intn(8))},
			kernelFixture{fmt.Sprintf("dense tail %d", i), denseTailSystem(r, 40+r.Intn(80), 6+r.Intn(10))})
	}
	return fx
}
