package sparse_test

// The embedded-fleet half of the blocked-vs-scalar equivalence suite:
// every embedded system's bordered KKT-shaped pattern goes through both
// numeric kernels and must agree. Random-pattern and fuzz coverage live
// in blocked_test.go (package sparse); this file runs grid-shaped
// patterns at every embedded size. They are proxies, not the matrices
// MIPS factors: see fleetKKTProxy.

import (
	"math/rand"
	"testing"

	"repro/internal/casegen"
	"repro/internal/la"
	"repro/internal/opf"
	"repro/internal/sparse"
)

// fleetKKTProxy assembles a bordered KKT-shaped matrix of an OPF: a
// diagonal standing in for the Lagrangian Hessian plus the full
// inequality normal-matrix pattern, bordered by the equality Jacobian.
// It is a denser relative of the reduced KKT system the interior-point
// loop factors — value-pivoted, its L+U is 3–5× production's
// pivot-shaped one (case300: 132,416 under RCM, 141,774 under AMD, vs
// 40,330; BENCH_kkt.json "production_fill") — which makes it a harder
// kernel test, not a fill measurement. Callers analyze it under RCM,
// what the deleted fill probe resolved to on this pattern, so the pivot
// sequences under test are the ones this file always ran.
func fleetKKTProxy(o *opf.OPF, vals *rand.Rand) *sparse.CSC {
	x := o.DefaultStart()
	_, jg := o.Equality(x)
	_, jh := o.FullInequality(x)
	nx, neq := o.Lay.NX, o.Lay.NEq
	kb := sparse.NewBuilder(nx+neq, nx+neq)
	for i := 0; i < nx; i++ {
		kb.Append(i, i, 4+vals.Float64())
	}
	jt := jh.T()
	for r := 0; r < jt.NCols; r++ {
		lo, hi := jt.ColPtr[r], jt.ColPtr[r+1]
		for p1 := lo; p1 < hi; p1++ {
			for p2 := lo; p2 < hi; p2++ {
				kb.Append(jt.RowIdx[p1], jt.RowIdx[p2], jt.Val[p1]*jt.Val[p2])
			}
		}
	}
	kb.AppendCSC(nx, 0, 1, jg)
	kb.AppendCSC(0, nx, 1, jg.T())
	return kb.ToCSC()
}

// skipLargeInShort gates the 1354-bus fleet subtests: their analyses
// and refactorizations dominate the package's test time, so -short
// (CI's default tier) runs the paper-scale systems only. A full
// `go test ./internal/sparse` still covers every embedded system.
func skipLargeInShort(t *testing.T, name string) {
	t.Helper()
	if testing.Short() && name == "case1354" {
		t.Skip("1354-bus fleet refactors are slow; run without -short for full coverage")
	}
}

func TestRefactorBlockedEmbeddedFleet(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, name := range casegen.EmbeddedNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			skipLargeInShort(t, name)
			c, err := casegen.Paper(name)
			if err != nil {
				t.Fatal(err)
			}
			o := opf.Prepare(c)
			kkt := fleetKKTProxy(o, r)
			sym, _, err := sparse.Analyze(kkt, sparse.OrderRCM, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			// Fresh values on the frozen pattern, both kernels.
			m := kkt.Clone()
			for p := range m.Val {
				m.Val[p] *= 1 + 0.1*r.NormFloat64()
			}
			fs, fb, ws := &sparse.LUFactors{}, &sparse.LUFactors{}, sym.NewRefactorWorkspace()
			if err := sym.RefactorInto(fs, ws, m); err != nil {
				t.Fatal(err)
			}
			if err := sym.RefactorBlockedInto(fb, ws, m); err != nil {
				t.Fatal(err)
			}
			rhs := make(la.Vector, m.NRows)
			for i := range rhs {
				rhs[i] = r.NormFloat64()
			}
			xs, xb := fs.Solve(rhs), fb.Solve(rhs)
			if d := xs.Clone().Sub(xb).NormInf(); d > 1e-8*(1+xs.NormInf()) {
				t.Fatalf("%s: blocked vs scalar solve differ by %v", name, d)
			}
			// Residual check pins the blocked kernel to the matrix
			// itself, not just to the scalar kernel. The bound is
			// relative to the scalar kernel's residual: both refactor m
			// on pivots frozen for kkt's values, so the achievable
			// residual is set by that pivot growth (which climbs with
			// system size — production refactors reject such factors via
			// the pivot-decay check), and the kernel-equivalence claim is
			// that blocked loses nothing beyond summation order.
			resS := m.MulVec(xs).Sub(rhs).NormInf()
			resB := m.MulVec(xb).Sub(rhs).NormInf()
			if resB > 10*resS+1e-6*(1+rhs.NormInf()) {
				t.Fatalf("%s: blocked solve residual %v (scalar %v)", name, resB, resS)
			}
			st := sym.PanelStats()
			t.Logf("%s: n=%d supernodes=%d panelCols=%d maxWidth=%d panelFrac=%.3f blocked=%v",
				name, kkt.NRows, st.Supernodes, st.PanelCols, st.MaxWidth, st.PanelFrac, st.Blocked)
		})
	}
}

// BenchmarkFleetRefactorKernels times the two numeric kernels on the
// embedded fleet's KKT proxies (the root-level BenchmarkKKTFactor
// feeds BENCH_kkt.json; this one is for quick kernel iteration).
func BenchmarkFleetRefactorKernels(b *testing.B) {
	r := rand.New(rand.NewSource(47))
	for _, name := range []string{"case118", "case300"} {
		c, err := casegen.Paper(name)
		if err != nil {
			b.Fatal(err)
		}
		kkt := fleetKKTProxy(opf.Prepare(c), r)
		sym, _, err := sparse.Analyze(kkt, sparse.OrderRCM, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		f := &sparse.LUFactors{}
		ws := sym.NewRefactorWorkspace()
		b.Run(name+"/scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sym.RefactorInto(f, ws, kkt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/blocked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sym.RefactorBlockedInto(f, ws, kkt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
