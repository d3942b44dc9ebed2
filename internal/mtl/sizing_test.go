package mtl

import (
	"testing"

	"repro/internal/opf"
)

// layoutFor mimics opf.Prepare's layout arithmetic for a fully rated
// system of nb buses, ng generators and nl branches (Vm, Pg and Qg
// bounds all finite, Va free — the embedded-fleet shape).
func layoutFor(nb, ng, nl int) opf.Layout {
	return opf.Layout{
		NB: nb, NG: ng, NLRated: nl,
		NX:    2*nb + 2*ng,
		NEq:   2*nb + 1,
		NIq:   2*nl + 2*nb + 4*ng,
		VmOff: nb, PgOff: 2 * nb, QgOff: 2*nb + ng,
	}
}

// TestTrunkWidthsScaleAware pins the sizing rule: the paper's linear
// 2nb rule for small and mid systems, the constraint-derived cap at
// case300 scale.
func TestTrunkWidthsScaleAware(t *testing.T) {
	for _, tc := range []struct {
		name       string
		lay        opf.Layout
		wantFirst  int
		capApplied bool
	}{
		{"case9-like", layoutFor(9, 3, 9), 18, false},
		{"case57-like", layoutFor(57, 7, 80), 114, false},
		{"case118-like", layoutFor(118, 54, 186), 236, false},
		{"case300-like", layoutFor(300, 69, 411), 384, true},
	} {
		w := trunkWidthsFor(tc.lay)
		if len(w) != 5 {
			t.Fatalf("%s: %d layers, want 5", tc.name, len(w))
		}
		if w[0] != tc.wantFirst {
			t.Errorf("%s: first width %d want %d", tc.name, w[0], tc.wantFirst)
		}
		if capApplied := w[0] < 2*tc.lay.NB; capApplied != tc.capApplied {
			t.Errorf("%s: cap applied = %v want %v (width %d, 2nb %d)",
				tc.name, capApplied, tc.capApplied, w[0], 2*tc.lay.NB)
		}
		for i := 1; i < len(w); i++ {
			if w[i] <= w[i-1] {
				t.Errorf("%s: widths %v not strictly widening", tc.name, w)
			}
		}
	}
}

// TestModelBuildsAtPaperScale: a case300-shaped model constructs, runs
// a forward pass, and its clone round-trips the parameter count — the
// shape contract cmd/train snapshots rely on.
func TestModelBuildsAtPaperScale(t *testing.T) {
	lay := layoutFor(300, 69, 411)
	m := New(lay, defaultConfig())
	count := func(m *Model) int {
		n := 0
		for _, p := range m.Params() {
			n += len(p.Val)
		}
		return n
	}
	// The capped trunk must be materially smaller than the paper's
	// uncapped linear rule at this scale.
	uncapped := defaultConfig()
	uncapped.TrunkWidths = []int{600, 720, 840, 960, 1080}
	if n, nu := count(m), count(New(lay, uncapped)); n >= nu*3/4 {
		t.Fatalf("capped model has %d parameters vs %d uncapped — sizing cap not effective", n, nu)
	}
	if got := len(m.Clone().Params()); got != len(m.Params()) {
		t.Fatalf("clone has %d tensors, model %d", got, len(m.Params()))
	}
}
