package mips_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/mips"
	"repro/internal/opf"
)

// kktReference builds, densely and from the problem's own callbacks, the
// Newton KKT matrix of the iterate res holds: JhᵀWJh over the full
// inequality set (bound rows included, W = diag(µ/z)) plus ∇²L in the
// primal block — its lower triangle mirrored, as Problem.Hess's contract
// reads it — the Jg borders, −δ on the dual diagonal. mag holds each entry's sum of term magnitudes, the scale of
// its rounding.
func kktReference(p *mips.Problem, res *mips.Result) (k, mag [][]float64) {
	x, nx := res.X, p.NX
	_, jg := p.G(x)
	n := nx + len(res.Lam)
	k, mag = make([][]float64, n), make([][]float64, n)
	for i := range k {
		k[i], mag[i] = make([]float64, n), make([]float64, n)
	}
	add := func(i, j int, v float64) {
		k[i][j] += v
		mag[i][j] += math.Abs(v)
	}
	// The inequality rows, each as (column, value) pairs.
	nh := res.NIqNonlin
	rows := make([][][2]float64, nh)
	if nh > 0 {
		_, jh := p.H(x)
		for j := 0; j < jh.NCols; j++ {
			for q := jh.ColPtr[j]; q < jh.ColPtr[j+1]; q++ {
				rows[jh.RowIdx[q]] = append(rows[jh.RowIdx[q]], [2]float64{float64(j), jh.Val[q]})
			}
		}
	}
	for _, i := range res.UpperIdx {
		rows = append(rows, [][2]float64{{float64(i), 1}})
	}
	for _, i := range res.LowerIdx {
		rows = append(rows, [][2]float64{{float64(i), -1}})
	}
	for r, row := range rows {
		w := res.Mu[r] / res.Z[r]
		for _, a := range row {
			for _, b := range row {
				add(int(a[0]), int(b[0]), w*a[1]*b[1])
			}
		}
	}
	hess := p.Hess(x, res.Lam, res.Mu[:nh])
	for j := 0; j < hess.NCols; j++ {
		for q := hess.ColPtr[j]; q < hess.ColPtr[j+1]; q++ {
			if i := hess.RowIdx[q]; i > j {
				add(i, j, hess.Val[q])
				add(j, i, hess.Val[q])
			} else if i == j {
				add(i, i, hess.Val[q])
			}
		}
	}
	for j := 0; j < jg.NCols; j++ {
		for q := jg.ColPtr[j]; q < jg.ColPtr[j+1]; q++ {
			add(nx+jg.RowIdx[q], j, jg.Val[q])
			add(j, nx+jg.RowIdx[q], jg.Val[q])
		}
	}
	for i := nx; i < n; i++ {
		add(i, i, -mips.KKTStaticReg)
	}
	return k, mag
}

// TestPackedStampMatchesReference checks the KKT system Step factors,
// stamped once per symmetric pair into the packed layout, entry by
// entry against kktReference a few iterations into cold solves of
// case9…case300 and of a branch-outage and a generator-outage class:
// every entry within 8 ulps of its terms' magnitude, and no entry of
// the reference outside the stamped pattern.
func TestPackedStampMatchesReference(t *testing.T) {
	type system struct {
		name string
		o    *opf.OPF
	}
	var systems []system
	for _, c := range []*grid.Case{grid.Case9(), grid.Case14(), grid.Case30(), grid.Case57(), grid.Case118(), grid.Case300()} {
		systems = append(systems, system{c.Name, opf.Prepare(c)})
	}
	base := opf.Prepare(grid.Case30())
	branch, err := base.RebindOutage(0)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := base.RebindGenOutage(1)
	if err != nil {
		t.Fatal(err)
	}
	systems = append(systems, system{"case30 branch 0 out", branch}, system{"case30 generator 1 out", gen})
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			p := sys.o.Problem()
			s := mips.NewStepper(p, sys.o.DefaultStart(), nil, mips.Options{})
			for i := 0; i < 3; i++ {
				if done, err := s.Step(); done {
					t.Fatalf("the solve finished at iteration %d: %v", i, err)
				}
			}
			s.Assemble()
			got := s.KKT()
			want, mag := kktReference(p, s.Result())
			dense := make([][]float64, got.NRows)
			for i := range dense {
				dense[i] = make([]float64, got.NCols)
			}
			for j := 0; j < got.NCols; j++ {
				for q := got.ColPtr[j]; q < got.ColPtr[j+1]; q++ {
					dense[got.RowIdx[q]][j] = got.Val[q]
				}
			}
			for i := range want {
				for j := range want[i] {
					if d := math.Abs(dense[i][j] - want[i][j]); d > 8*0x1p-52*mag[i][j] {
						t.Fatalf("K[%d,%d] = %v, reference %v (terms %v)", i, j, dense[i][j], want[i][j], mag[i][j])
					}
				}
			}
		})
	}
}

var updateWork = flag.Bool("update-work", false, "rewrite testdata/stamp_work.txt from the current stamp")

const workPath = "testdata/stamp_work.txt"

// TestStampWorkPinned pins, per embedded system up to case300, the
// packed KKT system's slots (nnz(L)+n of its analysis) and the
// multiplies and slot writes of one stamp to testdata/stamp_work.txt,
// the stamp's counterpart of sparse's testdata/ldl_work.txt. A change
// to the stamp's work shows here as a diff; regenerate with
// -update-work when that is the change's purpose.
func TestStampWorkPinned(t *testing.T) {
	var b strings.Builder
	b.WriteString("# name slots mults writes; written by go test ./internal/mips -run TestStampWorkPinned -update-work\n")
	for _, name := range []string{"case5", "case9", "case14", "case30", "case57", "case118", "case300"} {
		c, err := grid.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		o := opf.Prepare(c)
		s := mips.NewStepper(o.Problem(), o.DefaultStart(), nil, mips.Options{})
		s.Assemble()
		slots, mults, writes := mips.StampWork(s)
		fmt.Fprintf(&b, "%s %d %d %d\n", name, slots, mults, writes)
	}
	if *updateWork {
		if err := os.WriteFile(workPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("KKT stamp work differs from %s:\ngot:\n%swant:\n%s", workPath, got, want)
	}
}
