package mips

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/la"
	"repro/internal/sparse"
)

// randJacobian builds a random niq×nx sparse Jacobian with the given
// density. Rows may be empty (a constraint touching no variables never
// occurs in practice but must not break the view).
func randJacobian(r *rand.Rand, niq, nx int, density float64) *sparse.CSC {
	b := sparse.NewBuilder(niq, nx)
	for i := 0; i < niq; i++ {
		for j := 0; j < nx; j++ {
			if r.Float64() < density {
				b.Append(i, j, r.NormFloat64())
			}
		}
	}
	return b.ToCSC()
}

// jtDiagJ computes Jᵀ·diag(w)·J for a row-per-constraint Jacobian: the
// reference the arena's KKT stamp is pinned against.
func jtDiagJ(j *sparse.CSC, w la.Vector) *sparse.CSC {
	// Work row-wise: columns of Jᵀ are rows of J.
	jt := j.T() // nx × niq: column r holds row r of J
	nx := j.NCols
	b := sparse.NewBuilder(nx, nx)
	for r := 0; r < jt.NCols; r++ {
		wr := w[r]
		if wr == 0 {
			continue
		}
		lo, hi := jt.ColPtr[r], jt.ColPtr[r+1]
		for p1 := lo; p1 < hi; p1++ {
			for p2 := lo; p2 < hi; p2++ {
				b.Append(jt.RowIdx[p1], jt.RowIdx[p2], wr*jt.Val[p1]*jt.Val[p2])
			}
		}
	}
	return b.ToCSC()
}

// TestJhViewStreamedProductMatchesReference pins the arena's row-view
// JᵀWJ stamp — the KKT system Step factors, here with no Hessian, no
// equality rows and zero regularization — against the jtDiagJ
// reference on random Jacobians. Each matrix is stamped twice through
// one arena with fresh values, and every trial's pattern differs from
// the last, so both the compiling pass and the steady stamp are
// covered, the slot maps recompiling between trials.
func TestJhViewStreamedProductMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ar := new(Arena)
	for trial := 0; trial < 6; trial++ {
		niq := 3 + r.Intn(20)
		nx := 2 + r.Intn(15)
		j := randJacobian(r, niq, nx, 0.05+0.3*r.Float64())
		w := make(la.Vector, niq)
		for pass := 0; pass < 2; pass++ {
			for k := range j.Val {
				j.Val[k] = r.NormFloat64()
			}
			for k := range w {
				w[k] = 0.1 + r.Float64()
			}
			want := jtDiagJ(j, w)
			ar.ineq.bind(j, nx, nil, nil)
			copy(ar.ineq.m.Val, j.Val)
			ar.kkt.bind(&ar.ineq, nil, nil, nx, 0)
			ar.kkt.address(sparse.AnalyzeLDL(ar.kkt.pat))
			ar.kkt.stamp(&ar.ineq, w, nil, nil)
			got := ar.kkt.matrix()
			for i := 0; i < nx; i++ {
				for k := 0; k < nx; k++ {
					if d := math.Abs(got.At(i, k) - want.At(i, k)); d > 1e-13 {
						t.Fatalf("trial %d pass %d: JᵀWJ[%d,%d] = %v want %v",
							trial, pass, i, k, got.At(i, k), want.At(i, k))
					}
				}
			}
		}
	}
}

// TestKKTSlotMapsFollowPatterns checks the pattern keys the arena's slot
// maps are compiled under: a matrix sharing the compiled arrays matches
// by identity, a copy with the same pattern matches entrywise, and a
// changed pattern — or a nil matrix where one was compiled — does not.
func TestKKTSlotMapsFollowPatterns(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randJacobian(r, 6, 5, 0.4)
	var k patternKey
	k.remember(a)
	cp := &sparse.CSC{NRows: a.NRows, NCols: a.NCols,
		ColPtr: append([]int(nil), a.ColPtr...), RowIdx: append([]int(nil), a.RowIdx...)}
	if !k.matches(a) || !k.matches(cp) || !k.matches(a) {
		t.Fatal("the compiled pattern did not match itself")
	}
	other := randJacobian(r, 6, 5, 0.4)
	if k.matches(other) || k.matches(nil) {
		t.Fatal("a different pattern matched")
	}
	k.remember(nil)
	if !k.matches(nil) || k.matches(a) {
		t.Fatal("the nil pattern key is wrong")
	}
}

// TestRegularizationTouchesOnlyDiagonalSlots checks the one way a step
// changes the primal diagonal without a new stamp: an inertia shift
// (saveReg, shiftReg) writes base+δ_w, bit for bit, into exactly the
// primal-diagonal slots and leaves every other slot bit-identical.
func TestRegularizationTouchesOnlyDiagonalSlots(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 4; trial++ {
		nx, neq := 4+r.Intn(12), 1+r.Intn(4)
		ar := new(Arena)
		jh := randJacobian(r, 3+r.Intn(15), nx, 0.3)
		jg := randJacobian(r, neq, nx, 0.4)
		ones := make(la.Vector, nx)
		for k := range ones {
			ones[k] = 1
		}
		hess := jtDiagJ(randJacobian(r, nx, nx, 0.2), ones) // a symmetric pattern
		for k := range hess.Val {
			hess.Val[k] = r.NormFloat64()
		}
		ar.ineq.bind(jh, nx, nil, nil)
		copy(ar.ineq.m.Val, jh.Val)
		w := make([]float64, jh.NRows)
		for k := range w {
			w[k] = 0.1 + r.Float64()
		}
		k := &ar.kkt
		k.bind(&ar.ineq, hess, jg, nx, neq)
		k.address(sparse.AnalyzeLDL(k.pat))
		k.stamp(&ar.ineq, w, hess, jg)
		base := slices.Clone(k.v)
		diag := map[int32]bool{}
		for _, p := range k.reg {
			diag[p] = true
		}
		if len(diag) != nx {
			t.Fatalf("trial %d: %d distinct primal-diagonal slots, want %d", trial, len(diag), nx)
		}
		saved := make([]float64, nx)
		k.saveReg(saved)
		for _, dw := range []float64{1e-4, 3.7} {
			k.shiftReg(saved, dw)
			for p := range base {
				want := base[p]
				if diag[int32(p)] {
					want += dw
				}
				if math.Float64bits(k.v[p]) != math.Float64bits(want) {
					t.Fatalf("trial %d, δ %g: slot %d = %v, want %v", trial, dw, p, k.v[p], want)
				}
			}
		}
	}
}
