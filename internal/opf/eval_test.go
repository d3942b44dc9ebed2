package opf

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/sparse"
)

// evalCases returns the grids the streaming-vs-reference suite runs on.
func evalCases(t *testing.T) []*grid.Case {
	t.Helper()
	return []*grid.Case{grid.Case9(), grid.Case14(), grid.Case118()}
}

// evalTestPoint returns a deterministic off-flat-start point with
// non-trivial angles, magnitudes and dispatch, plus dual vectors with
// mixed signs — flat starts (Va = 0) mask conjugation and sign errors.
func evalTestPoint(o *OPF) (x, lam, mu la.Vector) {
	lay := o.Lay
	x = o.DefaultStart()
	for i := 0; i < lay.NB; i++ {
		x[lay.VaOff+i] += 0.1 * math.Sin(float64(3*i+1))
		x[lay.VmOff+i] += 0.05 * math.Cos(float64(2*i+1))
	}
	for g := 0; g < lay.NG; g++ {
		x[lay.PgOff+g] += 0.02 * math.Sin(float64(g+1))
		x[lay.QgOff+g] += 0.02 * math.Cos(float64(g+1))
	}
	lam = make(la.Vector, lay.NEq)
	for i := range lam {
		lam[i] = 0.7 * math.Sin(float64(2*i+3))
	}
	mu = make(la.Vector, 2*lay.NLRated)
	for i := range mu {
		mu[i] = 0.1 + 0.5*math.Abs(math.Sin(float64(i+2)))
	}
	return
}

// dense accumulates a CSC into a row-major dense matrix so patterns
// with different explicit-zero structure compare equal.
func dense(m *sparse.CSC) []float64 {
	d := make([]float64, m.NRows*m.NCols)
	for j := 0; j < m.NCols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			d[m.RowIdx[p]*m.NCols+j] += m.Val[p]
		}
	}
	return d
}

func matDiff(t *testing.T, what string, a, b *sparse.CSC, tol float64) {
	t.Helper()
	if a.NRows != b.NRows || a.NCols != b.NCols {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", what, a.NRows, a.NCols, b.NRows, b.NCols)
	}
	da, db := dense(a), dense(b)
	scale := 1.0
	for _, v := range da {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	for i := range da {
		if d := math.Abs(da[i] - db[i]); d > tol*scale {
			t.Fatalf("%s: entry (%d,%d) differs: %v vs %v (|Δ|=%g, scale %g)",
				what, i/a.NCols, i%a.NCols, da[i], db[i], d, scale)
		}
	}
}

func vecDiff(t *testing.T, what string, a, b la.Vector, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > tol*(1+math.Abs(a[i])) {
			t.Fatalf("%s: entry %d differs: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// evalInstances returns the intact instance of c plus, where c has them,
// one rated-branch outage class and one generator outage class: the
// decoupled rows and columns must evaluate alike on both paths.
func evalInstances(t *testing.T, c *grid.Case) map[string]*OPF {
	t.Helper()
	base := Prepare(c)
	out := map[string]*OPF{c.Name: base}
	for b, br := range c.Branches {
		if br.Status && br.RateA > 0 && grid.ConnectedWithout(c, []int{b}) {
			o, err := base.RebindOutage(b)
			if err != nil {
				t.Fatal(err)
			}
			out[c.Name+" rated-branch outage"] = o
			break
		}
	}
	o, err := base.RebindGenOutage(base.units[0])
	if err != nil {
		t.Fatal(err)
	}
	out[c.Name+" generator outage"] = o
	return out
}

// TestEvalMatchesReference pins the entry-wise streaming evaluation
// path (eval.go, what Solve runs) against the reference builders in
// opf.go on real grids and outage classes of them at a non-trivial
// point. Each comparison runs twice through the same scratch, so both
// the first pass and a pass on the cached point and reused values are
// covered.
func TestEvalMatchesReference(t *testing.T) {
	const tol = 1e-12
	for _, c := range evalCases(t) {
		for name, o := range evalInstances(t, c) {
			x, lam, mu := evalTestPoint(o)
			sc := new(evalScratch)
			sc.ensure(o)
			for pass := 0; pass < 2; pass++ {
				fRef, dfRef := o.costGrad(x)
				fNew, dfNew := o.evalCost(sc, x)
				if math.Abs(fRef-fNew) > tol*(1+math.Abs(fRef)) {
					t.Fatalf("%s pass %d: cost %v vs %v", name, pass, fRef, fNew)
				}
				vecDiff(t, name+" df", dfRef, dfNew, tol)

				gRef, jgRef := o.equality(x, true)
				gNew, jgNew := o.evalEquality(sc, x)
				vecDiff(t, name+" g", gRef, gNew, tol)
				matDiff(t, name+" Jg", jgRef, jgNew, tol)

				if o.Lay.NLRated > 0 {
					hRef, jhRef := o.inequality(x, true)
					hNew, jhNew := o.evalInequality(sc, x)
					vecDiff(t, name+" h", hRef, hNew, tol)
					matDiff(t, name+" Jh", jhRef, jhNew, tol)
				}

				hessRef := o.hessian(x, lam, mu)
				hessNew := o.evalHessian(sc, x, lam, mu)
				matDiff(t, name+" Hess", hessRef, hessNew, tol)
			}
		}
	}
}

// TestEvalHessianNoMu covers the unrated-branch degenerate shape: with
// no inequality rows the Hessian must still match (power + cost blocks
// only).
func TestEvalHessianNoMu(t *testing.T) {
	c := grid.Case9()
	for i := range c.Branches {
		c.Branches[i].RateA = 0
	}
	o := Prepare(c)
	if o.Lay.NLRated != 0 {
		t.Fatalf("expected no rated branches, got %d", o.Lay.NLRated)
	}
	x, lam, _ := evalTestPoint(o)
	sc := new(evalScratch)
	sc.ensure(o)
	matDiff(t, "Hess", o.hessian(x, lam, nil), o.evalHessian(sc, x, lam, nil), 1e-12)
}
