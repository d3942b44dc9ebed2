package grid

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sparse"
)

// rebuildWithout is the reference: flip the branch out of service and
// rebuild the admittance matrices from scratch.
func rebuildWithout(c *Case, branch int) *YMatrices {
	cc := c.Clone()
	cc.Branches[branch].Status = false
	if err := cc.Normalize(); err != nil {
		panic(err)
	}
	return MakeYbus(cc)
}

// sameValues requires got to store every entry of want with a bit-identical
// value, and anything more only as an exact zero: the same matrix,
// possibly on a larger pattern.
func sameValues(t *testing.T, name string, got, want *sparse.CSCComplex) {
	t.Helper()
	if got.NRows != want.NRows || got.NCols != want.NCols {
		t.Fatalf("%s: shape %dx%d want %dx%d", name, got.NRows, got.NCols, want.NRows, want.NCols)
	}
	for j := 0; j < got.NCols; j++ {
		q := want.ColPtr[j]
		for p := got.ColPtr[j]; p < got.ColPtr[j+1]; p++ {
			i := got.RowIdx[p]
			if q < want.ColPtr[j+1] && want.RowIdx[q] == i {
				if got.Val[p] != want.Val[q] {
					t.Fatalf("%s: (%d,%d) = %v want %v (not bit-identical)", name, i, j, got.Val[p], want.Val[q])
				}
				q++
			} else if got.Val[p] != 0 {
				t.Fatalf("%s: (%d,%d) = %v where the rebuild stores nothing", name, i, j, got.Val[p])
			}
		}
		if q != want.ColPtr[j+1] {
			t.Fatalf("%s: column %d lacks the rebuild's entry in row %d", name, j, want.RowIdx[q])
		}
	}
}

func sameComplexCSC(t *testing.T, name string, got, want *sparse.CSCComplex) {
	t.Helper()
	if got.NRows != want.NRows || got.NCols != want.NCols {
		t.Fatalf("%s: shape %dx%d want %dx%d", name, got.NRows, got.NCols, want.NRows, want.NCols)
	}
	if len(got.RowIdx) != len(want.RowIdx) {
		t.Fatalf("%s: nnz %d want %d", name, len(got.RowIdx), len(want.RowIdx))
	}
	for i := range got.ColPtr {
		if got.ColPtr[i] != want.ColPtr[i] {
			t.Fatalf("%s: ColPtr[%d] = %d want %d", name, i, got.ColPtr[i], want.ColPtr[i])
		}
	}
	for p := range got.RowIdx {
		if got.RowIdx[p] != want.RowIdx[p] {
			t.Fatalf("%s: RowIdx[%d] = %d want %d", name, p, got.RowIdx[p], want.RowIdx[p])
		}
		if got.Val[p] != want.Val[p] {
			t.Fatalf("%s: Val[%d] = %v want %v (not bit-identical)", name, p, got.Val[p], want.Val[p])
		}
	}
}

func sameBranchMat(t *testing.T, name string, got, want *BranchMat) {
	t.Helper()
	if got.NB != want.NB || got.NL() != want.NL() {
		t.Fatalf("%s: shape %dx%d want %dx%d", name, got.NL(), got.NB, want.NL(), want.NB)
	}
	for l := range got.F {
		if got.F[l] != want.F[l] || got.T[l] != want.T[l] ||
			got.Vf[l] != want.Vf[l] || got.Vt[l] != want.Vt[l] {
			t.Fatalf("%s: row %d differs", name, l)
		}
	}
}

// Property: the incremental single-branch-outage delta is bit-identical
// in value to rebuilding the admittance matrices on the outaged case,
// for every branch (bridges included; connectivity is a screening
// concern, not a matrix one) of every embedded system, and its Ybus keeps
// the intact pattern: what the rebuild no longer stores is an exact zero.
func TestDropBranchMatchesRebuild(t *testing.T) {
	cases := []*Case{Case5(), Case9(), Case14(), Case30(), Case57(), Case118()}
	if !testing.Short() {
		cases = append(cases, Case300())
	}
	for _, c := range cases {
		y := MakeYbus(c)
		active := 0
		for branch, br := range c.Branches {
			if !br.Status {
				continue
			}
			got := y.DropBranch(c, active)
			want := rebuildWithout(c, branch)
			name := c.Name + "/outage"
			if !slices.Equal(got.Ybus.ColPtr, y.Ybus.ColPtr) || !slices.Equal(got.Ybus.RowIdx, y.Ybus.RowIdx) {
				t.Fatalf("%s: Ybus pattern differs from the intact one", name)
			}
			sameValues(t, name+"/Ybus", got.Ybus, want.Ybus)
			sameBranchMat(t, name+"/Yf", got.Yf, want.Yf)
			sameBranchMat(t, name+"/Yt", got.Yt, want.Yt)
			for i := range got.FIdx {
				if got.FIdx[i] != want.FIdx[i] || got.TIdx[i] != want.TIdx[i] {
					t.Fatalf("%s: FIdx/TIdx[%d] differ", name, i)
				}
			}
			active++
		}
	}
}

// Property: the generator-drop view is bit-identical to a full rebuild
// across all generators of all embedded systems — the admittance
// matrices (which a generator cannot touch) match a fresh MakeYbus of
// the rebuilt case pattern-and-values, and the active-generator
// bookkeeping (count, bus indices) matches the rebuilt case exactly.
// Mirror of TestDropBranchMatchesRebuild for the generator axis.
func TestWithoutGenMatchesRebuild(t *testing.T) {
	cases := []*Case{Case5(), Case9(), Case14(), Case30(), Case57(), Case118()}
	if !testing.Short() {
		cases = append(cases, Case300())
	}
	for _, c := range cases {
		for g, gen := range c.Gens {
			if !gen.Status {
				continue
			}
			view := c.WithoutGen(g)
			cc := c.Clone()
			cc.Gens[g].Status = false
			if err := cc.Normalize(); err != nil {
				t.Fatalf("%s gen %d: %v", c.Name, g, err)
			}
			name := c.Name + "/genout"
			sameComplexCSC(t, name+"/Ybus", MakeYbus(view).Ybus, MakeYbus(cc).Ybus)
			if view.NG() != cc.NG() || view.NG() != c.NG()-1 {
				t.Fatalf("%s gen %d: NG %d/%d want %d", c.Name, g, view.NG(), cc.NG(), c.NG()-1)
			}
			vIdx, wIdx := GenBusIdx(view), GenBusIdx(cc)
			if len(vIdx) != len(wIdx) {
				t.Fatalf("%s gen %d: %d active gens want %d", c.Name, g, len(vIdx), len(wIdx))
			}
			for i := range vIdx {
				if vIdx[i] != wIdx[i] {
					t.Fatalf("%s gen %d: GenBusIdx[%d] = %d want %d", c.Name, g, i, vIdx[i], wIdx[i])
				}
			}
		}
	}
}

func TestWithoutGenView(t *testing.T) {
	c := Case9()
	v := c.WithoutGen(1)
	if !c.Gens[1].Status {
		t.Fatal("view mutated the base case")
	}
	if v.Gens[1].Status {
		t.Fatal("view generator still in service")
	}
	if v.NG() != c.NG()-1 {
		t.Fatalf("view NG = %d want %d", v.NG(), c.NG()-1)
	}
	// The Normalize index is shared — no re-Normalize needed.
	if v.BusIndex(c.Buses[0].ID) != 0 {
		t.Fatal("bus index lost on the view")
	}
	// Cloning the view detaches it fully (the Perturb path).
	cl := v.Clone()
	cl.Gens[0].Pg = 321
	if c.Gens[0].Pg == 321 || v.Gens[0].Pg == 321 {
		t.Fatal("clone of the view shares generator storage")
	}
}

func TestWithoutBranchView(t *testing.T) {
	c := Case9()
	v := c.WithoutBranch(3)
	if c.Branches[3].Status != true {
		t.Fatal("view mutated the base case")
	}
	if v.Branches[3].Status {
		t.Fatal("view branch still in service")
	}
	if v.NL() != c.NL()-1 {
		t.Fatalf("view NL = %d want %d", v.NL(), c.NL()-1)
	}
	// The Normalize index is shared — no re-Normalize needed.
	if v.BusIndex(c.Buses[0].ID) != 0 {
		t.Fatal("bus index lost on the view")
	}
	// Cloning the view detaches it fully (the Perturb path).
	cl := v.Clone()
	cl.Buses[0].Pd = 123
	if c.Buses[0].Pd == 123 || v.Buses[0].Pd == 123 {
		t.Fatal("clone of the view shares bus storage")
	}
}

// Fuzz-style property: for randomized outage subsets of every embedded
// system, the multi-skip connectivity check agrees with the from-scratch
// BFS on a case whose Status flags were actually flipped.
func TestConnectedWithoutRandomSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, c := range []*Case{Case9(), Case14(), Case30(), Case57()} {
		if !ConnectedWithout(c, nil) {
			t.Fatalf("%s not connected intact", c.Name)
		}
		for trial := 0; trial < 60; trial++ {
			k := 1 + rng.Intn(4)
			skip := make([]int, 0, k)
			for len(skip) < k {
				skip = append(skip, rng.Intn(len(c.Branches)))
			}
			got := ConnectedWithout(c, skip)
			cc := c.Clone()
			for _, l := range skip {
				cc.Branches[l].Status = false
			}
			if err := cc.Normalize(); err != nil {
				t.Fatal(err)
			}
			if want := ConnectedWithout(cc, nil); got != want {
				t.Fatalf("%s skip %v: ConnectedWithout = %v, rebuilt BFS = %v", c.Name, skip, got, want)
			}
		}
	}
}

// Case30 must be a well-formed, solvable embedding of the IEEE 30-bus
// system with every branch rated (the layout-changing contingency case).
func TestCase30(t *testing.T) {
	c := Case30()
	if c.NB() != 30 || c.NG() != 6 || c.NL() != 41 {
		t.Fatalf("counts %d/%d/%d want 30/6/41", c.NB(), c.NG(), c.NL())
	}
	for l, br := range c.Branches {
		if br.RateA <= 0 {
			t.Fatalf("branch %d unrated; case30 carries flow limits on every branch", l)
		}
	}
	p, q := c.TotalLoad()
	if p < 180 || p > 200 || q < 100 || q > 115 {
		t.Fatalf("total load %.1f MW %.1f MVAr outside the IEEE 30-bus range", p, q)
	}
}
