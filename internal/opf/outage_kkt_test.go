package opf

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/grid"
	"repro/internal/sparse"
)

// onIntactPattern fails unless one iteration of cls factors its KKT
// system on the intact analysis already in place — no ordering and no
// analysis — which the handle does only for a matrix of exactly the
// analyzed pattern.
func onIntactPattern(t *testing.T, name string, cls *OPF) {
	t.Helper()
	before := cls.KKTStats()
	_, _ = cls.Solve(nil, Options{MaxIter: 1}) // one iteration never converges; the factorization is what is wanted
	if st := cls.KKTStats().Sub(before); st.Orderings != 0 || st.Analyses != 0 {
		t.Fatalf("%s: KKT pattern differs from the intact one: %+v", name, st)
	}
}

// solveBothWays cold-solves an outage class twice — on its parent's KKT
// analysis, as RebindOutage and RebindGenOutage leave it, and on a
// private analysis of its own pattern (a fresh cache) — and requires the
// two bit-identical: the pattern is the parent's, and its analysis a
// function of the pattern alone. It reports whether the solve converged.
func solveBothWays(t *testing.T, name string, cls *OPF) bool {
	t.Helper()
	got, gerr := cls.Solve(nil, Options{})
	if st := cls.KKTStats(); st.Orderings != 0 || st.Analyses != 0 || st.Refactors == 0 {
		t.Fatalf("%s: solve left the parent's analysis: %+v", name, st)
	}
	private := *cls
	private.kkt = sparse.NewSymbolicCache()
	want, werr := private.Solve(nil, Options{})
	if st := private.KKTStats(); st.Analyses == 0 || st.Orderings != 1 {
		t.Fatalf("%s: reference path did not analyze privately: %+v", name, st)
	}
	sameTrajectory(t, name, got, gerr, want, werr)
	return gerr == nil && got.Converged
}

// Every contingency class of the embedded systems (case300 outside
// -short) — every connected branch outage, every generator outage, every
// branch+generator combination and every connected case14 branch pair —
// has the intact system's KKT pattern: it factors on the intact analysis,
// which is made once for the whole contingency space. Up to case118 the
// classes are also solved to the end on that analysis and on a private
// one, bit-identical (every branch and generator class; the
// branch+generator classes on a diagonal sample).
//
// The case14 pairs also floor the verdicts: at least minPairsConverged
// of the 163 connected pairs converge cold. The LDLᵀ's static pivot
// boost is what holds it — with the boost removed 153 converge, pair
// 0+2 collapsing on its first factorization (PERFORMANCE.md, "The
// static pivot boost stays").
func TestOutageFleetKeepsParentAnalysis(t *testing.T) {
	cases := []*grid.Case{grid.Case9(), grid.Case14(), grid.Case30(), grid.Case57(), grid.Case118()}
	if !testing.Short() {
		cases = append(cases, grid.Case300())
	}
	for _, c := range cases {
		base := Prepare(c)
		// The intact analysis, for every class below to find.
		_, _ = base.Solve(nil, Options{MaxIter: 1})
		var connected, units []int
		for b, br := range c.Branches {
			if br.Status && grid.ConnectedWithout(c, []int{b}) {
				connected = append(connected, b)
			}
		}
		for g, gen := range c.Gens {
			if gen.Status {
				units = append(units, g)
			}
		}
		// The solves are serial numerics: under -short, and under the race
		// detector (minutes for nothing it can find), sample the large
		// fleets' solves — the race detector solves only the first class of
		// each kind — and check only the diagonal of branch × generator
		// patterns; case300 checks patterns alone, on that diagonal. Every
		// branch and generator class's pattern is checked in every mode.
		stride, sampled := 1, testing.Short() || raceEnabled
		if sampled && len(connected) > 40 {
			stride = 8
		}
		solve := func(k int) bool { return k%stride == 0 && c.Name != "case300" && (!raceEnabled || k == 0) }
		for k, g := range units {
			cls, err := base.RebindGenOutage(g)
			if err != nil {
				t.Fatal(err)
			}
			name := c.Name + " gen " + strconv.Itoa(g)
			onIntactPattern(t, name, cls)
			if solve(k) {
				solveBothWays(t, name, cls)
			}
		}
		for k, b := range connected {
			cls, err := base.RebindOutage(b)
			if err != nil {
				t.Fatal(err)
			}
			name := c.Name + " branch " + strconv.Itoa(b)
			onIntactPattern(t, name, cls)
			if solve(k) {
				solveBothWays(t, name, cls)
			}
			for u, g := range units {
				diagonal := u == k%len(units)
				if !diagonal && (sampled || c.Name == "case300") {
					continue
				}
				bg, err := cls.RebindGenOutage(g)
				if err != nil {
					t.Fatal(err)
				}
				name := name + " + gen " + strconv.Itoa(g)
				onIntactPattern(t, name, bg)
				if diagonal && solve(k) {
					solveBothWays(t, name, bg)
				}
			}
		}
		if c.Name == "case14" {
			const minPairsConverged = 160
			pairs, converged := 0, 0
			for i, b1 := range connected {
				for _, b2 := range connected[i+1:] {
					if !grid.ConnectedWithout(c, []int{b1, b2}) {
						continue
					}
					one, err := base.RebindOutage(b1)
					if err != nil {
						t.Fatal(err)
					}
					two, err := one.RebindOutage(b2)
					if err != nil {
						t.Fatal(err)
					}
					name := c.Name + " pair " + strconv.Itoa(b1) + "+" + strconv.Itoa(b2)
					onIntactPattern(t, name, two)
					pairs++
					if solveBothWays(t, name, two) {
						converged++
					}
				}
			}
			if converged < minPairsConverged {
				t.Fatalf("case14: %d of %d connected branch pairs converge cold, want at least %d", converged, pairs, minPairsConverged)
			}
		}
		if st := base.KKTStats(); st.Analyses != 1 || st.Orderings != 1 {
			t.Fatalf("%s: intact system analyzed %d times (%d orderings) for its whole contingency space, want once", c.Name, st.Analyses, st.Orderings)
		}
	}
}

// An outage solve must not depend on whether the intact system was
// solved before it: the derived instance puts the intact analysis in
// place itself. Fresh Prepare → RebindOutage → Solve, with and without a
// base solve first, and with the base solved only after deriving, are
// bit-identical.
func TestOutageSolveIndependentOfBaseHistory(t *testing.T) {
	c := grid.Case30()
	const branch = 5
	solve := func(baseFirst, baseBetween bool) *Result {
		base := Prepare(c)
		if baseFirst {
			if _, err := base.Solve(nil, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		cls, err := base.RebindOutage(branch)
		if err != nil {
			t.Fatal(err)
		}
		if baseBetween {
			if _, err := base.Solve(nil, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		r, err := cls.Solve(nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st := cls.KKTStats(); st.Analyses != 0 || st.Orderings != 0 {
			t.Fatalf("outage class analyzed for itself (base first %v, between %v): %+v", baseFirst, baseBetween, st)
		}
		if st := base.KKTStats(); st.Analyses != 1 {
			t.Fatalf("intact system analyzed %d times (base first %v, between %v), want once", st.Analyses, baseFirst, baseBetween)
		}
		return r
	}
	want := solve(false, false)
	for _, r := range []*Result{solve(true, false), solve(false, true)} {
		if r.Iterations != want.Iterations || r.Cost != want.Cost || !slices.Equal(r.X, want.X) ||
			!slices.Equal(r.Lam, want.Lam) || !slices.Equal(r.Mu, want.Mu) || !slices.Equal(r.Z, want.Z) {
			t.Fatalf("outage solve depends on the base instance's history: %d iterations cost %v vs %d iterations cost %v",
				r.Iterations, r.Cost, want.Iterations, want.Cost)
		}
	}
}
