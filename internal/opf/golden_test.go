package opf

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mips"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_solves.txt from the current solver")

const goldenPath = "testdata/golden_solves.txt"

// goldenSolve is one pinned solve: the iteration count, an FNV-1a hash
// of the float64 bits of X, λ, µ and Z, and how the solve ended.
type goldenSolve struct {
	iters   int
	hash    uint64
	verdict string // converged, numeric, stalled or maxiter
}

func (g goldenSolve) String() string { return fmt.Sprintf("%d %016x %s", g.iters, g.hash, g.verdict) }

// verdictOf names how a solve ended: converged, or the mips error that
// stopped it.
func verdictOf(t *testing.T, r *Result, err error) string {
	t.Helper()
	switch {
	case err == nil && r.Converged:
		return "converged"
	case errors.Is(err, mips.ErrNumeric):
		return "numeric"
	case errors.Is(err, mips.ErrStalled):
		return "stalled"
	case errors.Is(err, mips.ErrMaxIter):
		return "maxiter"
	}
	t.Fatalf("solve ended with converged=%v and an error no verdict names: %v", r.Converged, err)
	return ""
}

func pin(iters int, x, lam, mu, z la.Vector) goldenSolve {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []la.Vector{x, lam, mu, z} {
		for _, f := range v {
			u := math.Float64bits(f)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
		h.Write([]byte{0xff}) // vector boundary
	}
	return goldenSolve{iters: iters, hash: h.Sum64()}
}

func pinResult(r *Result) goldenSolve { return pin(r.Iterations, r.X, r.Lam, r.Mu, r.Z) }

// loadDraw returns the seeded ±10 % per-bus load factors of draw seed.
func loadDraw(nb int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	f := make([]float64, nb)
	for i := range f {
		f[i] = 1 + 0.1*(2*r.Float64()-1)
	}
	return f
}

// goldenInstances returns the pinned corpus in a fixed order: three
// seeded load draws of every system (case300 outside -short), then one
// rated-branch outage, one generator outage and one ramp-limited
// instance of case30.
func goldenInstances(t *testing.T) ([]string, map[string]*OPF) {
	t.Helper()
	systems := []*grid.Case{grid.Case9(), grid.Case14(), grid.Case30(), grid.Case57(), grid.Case118()}
	if !testing.Short() {
		systems = append(systems, grid.Case300())
	}
	var names []string
	insts := map[string]*OPF{}
	add := func(name string, o *OPF) {
		names = append(names, name)
		insts[name] = o
	}
	for _, c := range systems {
		base := Prepare(c)
		for seed := int64(1); seed <= 3; seed++ {
			add(fmt.Sprintf("%s/draw%d", c.Name, seed), base.Perturb(loadDraw(c.NB(), seed)))
		}
	}
	c := grid.Case30()
	base := Prepare(c)
	for b, br := range c.Branches {
		if br.Status && br.RateA > 0 && grid.ConnectedWithout(c, []int{b}) {
			o, err := base.RebindOutage(b)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("case30/branch%d", b), o)
			break
		}
	}
	g, err := base.RebindGenOutage(base.units[1])
	if err != nil {
		t.Fatal(err)
	}
	add(fmt.Sprintf("case30/gen%d", base.units[1]), g)
	lay := base.Lay
	x := base.DefaultStart()
	prev := x[lay.PgOff : lay.PgOff+lay.NG]
	lim := make(la.Vector, lay.NG)
	for i := range lim {
		lim[i] = 0.05
	}
	rmp, err := base.RebindRamp(prev, lim, lim)
	if err != nil {
		t.Fatal(err)
	}
	add("case30/ramp", rmp)
	return names, insts
}

func readGolden(t *testing.T) map[string]goldenSolve {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]goldenSolve{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var g goldenSolve
		if _, err := fmt.Sscanf(line, "%s %d %x %s", &name, &g.iters, &g.hash, &g.verdict); err != nil {
			t.Fatalf("%s: bad line %q: %v", goldenPath, line, err)
		}
		out[name] = g
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenSolvesBitIdentical pins cold solves of the corpus to the
// iteration counts, bit patterns and verdicts recorded in testdata: any
// change to the evaluation, assembly or factorization order that moves
// one bit of an iterate fails here, and so does a solve that ends
// another way (case30/ramp, for one, ends on a collapsed KKT column).
// Regenerate with -update-golden only for a change meant to move answers.
func TestGoldenSolvesBitIdentical(t *testing.T) {
	names, insts := goldenInstances(t)
	got := map[string]goldenSolve{}
	for _, name := range names {
		r, err := insts[name].Solve(nil, Options{}) // a failed solve is pinned too
		g := pinResult(r)
		g.verdict = verdictOf(t, r, err)
		got[name] = g
	}
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# name iterations fnv64a(X, Lam, Mu, Z bits) verdict; written by go test -run TestGoldenSolvesBitIdentical -update-golden\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in %s", name, goldenPath)
			continue
		}
		if got[name] != w {
			t.Errorf("%s: solve %v, golden %v", name, got[name], w)
		}
	}
}

// TestGoldenPooledMatchesFresh alternates one goroutine's pooled
// evaluation scratch and solver arena between grids — case118, case300
// (outside -short), case118 again, then a case118 branch-outage class —
// and requires each pooled solve to equal a solve on a fresh scratch and
// arena bit for bit.
func TestGoldenPooledMatchesFresh(t *testing.T) {
	c118 := Prepare(grid.Case118())
	seq := []*OPF{c118}
	if !testing.Short() {
		seq = append(seq, Prepare(grid.Case300()))
	}
	out, err := c118.RebindOutage(0)
	if err != nil {
		t.Fatal(err)
	}
	seq = append(seq, c118, out)
	for i, o := range seq {
		r, _ := o.Solve(nil, Options{})
		s := mips.NewStepper(o.Problem(), o.DefaultStart(), nil, mips.Options{})
		for done := false; !done; {
			done, _ = s.Step()
		}
		f := s.Result()
		if got, want := pinResult(r), pin(f.Iterations, f.X, f.Lam, f.Mu, f.Z); got != want {
			t.Errorf("solve %d (%s): pooled %v, fresh %v", i, o.Case.Name, got, want)
		}
	}
}
