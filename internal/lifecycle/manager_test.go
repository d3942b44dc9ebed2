package lifecycle

import (
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mtl"
)

// captureTraffic converts generated dataset samples into served-traffic
// records, as the serving tap would produce them.
func captureTraffic(set *dataset.Set, warmConverged bool) []Record {
	recs := make([]Record, len(set.Samples))
	for i, s := range set.Samples {
		recs[i] = Record{
			Factors: s.Factors, Input: s.Input,
			X: s.X, Lam: s.Lam, Mu: s.Mu, Z: s.Z,
			Cost: s.Cost, Iterations: s.Iterations,
			Warm: true, WarmConverged: warmConverged,
		}
	}
	return recs
}

// TestManagerClosedLoop drives the whole state machine deterministically
// in-process: capture → drift → retrain-from-captured-pairs → canary →
// promote, with an injected clock and seeded traffic, checking the
// registry records every transition.
func TestManagerClosedLoop(t *testing.T) {
	sys, m := loadFixture(t)
	clk := NewFakeClock()
	reg, err := NewRegistry(t.TempDir(), clk)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := reg.SaveIncumbent(sys.Name, m, "boot")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{
		System:  sys,
		Variant: mtl.VariantSmartPGSim,
		Clock:   clk,
		Capture: CaptureConfig{Cap: 256},
		Drift:   DriftConfig{Window: 8, Baseline: 2},
		Canary:  CanaryConfig{Frac: 0.5, Window: 4},

		RetrainEpochs: 30,
		RetrainSeed:   11,
		Registry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetIncumbent(inc.ID)

	// Phase 1: healthy traffic freezes the baseline (2 windows of 8).
	set, err := sys.GenerateData(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := captureTraffic(set, true)
	for i := 0; i < 16; i++ {
		if act := mgr.Observe(good[i]); act != ActionNone {
			t.Fatalf("action %v during baseline", act)
		}
	}

	// Phase 2: the regime changes — warm starts stop converging. The
	// solutions are still captured (the cold restart converged), so the
	// retrain corpus keeps growing. Drift must fire on the window close.
	var fired int
	for i := 16; i < 24; i++ {
		r := good[i]
		r.WarmConverged = false
		if mgr.Observe(r) == ActionRetrain {
			fired = i
		}
	}
	if fired != 23 {
		t.Fatalf("drift fired at observation %d, want 23 (first degraded window close)", fired)
	}
	if mgr.State() != StateCapturing {
		t.Fatalf("state = %v after drift, want capturing until Retrain runs", mgr.State())
	}
	st := mgr.Stats()
	if st.DriftEvents != 1 || st.Captured != 24 || st.Retained != 24 {
		t.Fatalf("stats after drift: %+v", st)
	}

	// Phase 3: retrain on the captured pairs through the offline path.
	clk.Advance(3 * time.Second)
	cand, version, err := mgr.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if cand == nil || version == "" {
		t.Fatalf("retrain returned %v/%q", cand, version)
	}
	if mgr.State() != StateCanary {
		t.Fatalf("state = %v after retrain, want canary", mgr.State())
	}
	man, _, err := reg.Manifest(sys.Name)
	if err != nil {
		t.Fatal(err)
	}
	if man.Candidate != version {
		t.Fatalf("registry candidate = %q, want %q", man.Candidate, version)
	}
	if st := mgr.Stats(); st.Retrains != 1 {
		t.Fatalf("retrain stats: %+v", st)
	}

	// Phase 4: canary. The incumbent arm keeps failing, the candidate
	// converges — promotion once both arms fill their window.
	c := mgr.Canary()
	if c == nil {
		t.Fatal("no canary controller after retrain")
	}
	for i := 0; i < 4; i++ {
		if d := mgr.Decide(); d != Undecided {
			t.Fatalf("decision = %v with %d-observation arms", d, i)
		}
		c.Observe(false, false, 0)
		c.Observe(true, true, 6)
	}
	if d := mgr.Decide(); d != Promote {
		t.Fatalf("canary decision = %v, want promote", d)
	}
	if err := mgr.CompletePromotion(); err != nil {
		t.Fatal(err)
	}
	if mgr.State() != StateCapturing {
		t.Fatalf("state = %v after promotion, want capturing", mgr.State())
	}
	man, _, err = reg.Manifest(sys.Name)
	if err != nil {
		t.Fatal(err)
	}
	if man.Incumbent != version || man.Candidate != "" {
		t.Fatalf("registry after promotion: incumbent=%q candidate=%q", man.Incumbent, man.Candidate)
	}
	if v, _ := man.Find(inc.ID); v.State != StateRetired {
		t.Fatalf("boot incumbent state = %q, want retired", v.State)
	}
	st = mgr.Stats()
	if st.Promotions != 1 || st.IncumbentVersion != version || st.CandidateVersion != "" {
		t.Fatalf("stats after promotion: %+v", st)
	}
	// The detector re-baselined: fresh windows, not fired.
	if mgr.Detector().Windows() != 0 {
		t.Fatal("promotion did not re-baseline the drift detector")
	}
}

// TestManagerCaptureOnlyKeepsWatching: without a retrain (pgsimd
// -capture-dir without -retrain), a drift event leaves the manager
// capturing and its detector fed: it re-baselines on the drifted
// traffic, which then fires no second event.
func TestManagerCaptureOnlyKeepsWatching(t *testing.T) {
	sys, _ := loadFixture(t)
	mgr, err := NewManager(Config{
		System:  sys,
		Variant: mtl.VariantSmartPGSim,
		Clock:   NewFakeClock(),
		Drift:   DriftConfig{Window: 8, Baseline: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	observe := func(n int, warmConverged bool) (fired int) {
		for i := 0; i < n; i++ {
			if mgr.Observe(Record{Warm: true, WarmConverged: warmConverged, Iterations: 5}) == ActionRetrain {
				fired++
			}
		}
		return fired
	}
	if fired := observe(16, true) + observe(8, false); fired != 1 {
		t.Fatalf("%d drift events on a hit-rate step, want 1", fired)
	}
	if mgr.State() != StateCapturing {
		t.Fatalf("state = %v after drift, want capturing", mgr.State())
	}
	if fired := observe(200, false); fired != 0 {
		t.Fatalf("%d more drift events on stationary traffic, want 0", fired)
	}
	if st, w := mgr.Stats(), mgr.Detector().Windows(); st.State != StateCapturing || st.DriftEvents != 1 || w != 25 {
		t.Fatalf("after 200 more observations: state %v, %d drift events, %d detector windows; want capturing, 1, 25",
			st.State, st.DriftEvents, w)
	}
}

// TestManagerRollback pins the rollback leg: a canary opened with an
// externally pushed candidate is rejected and the incumbent keeps
// serving.
func TestManagerRollback(t *testing.T) {
	sys, m := loadFixture(t)
	reg, err := NewRegistry(t.TempDir(), NewFakeClock())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := reg.SaveIncumbent(sys.Name, m, "boot")
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(Config{System: sys, Variant: mtl.VariantSmartPGSim, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetIncumbent(inc.ID)
	version, err := mgr.BeginCanaryWith(m.Clone(), "operator push")
	if err != nil {
		t.Fatal(err)
	}
	if mgr.State() != StateCanary {
		t.Fatalf("state = %v, want canary", mgr.State())
	}
	if err := mgr.CompleteRollback(); err != nil {
		t.Fatal(err)
	}
	man, _, err := reg.Manifest(sys.Name)
	if err != nil {
		t.Fatal(err)
	}
	if man.Incumbent != inc.ID || man.Candidate != "" {
		t.Fatalf("registry after rollback: incumbent=%q candidate=%q", man.Incumbent, man.Candidate)
	}
	if v, _ := man.Find(version); v.State != StateRejected {
		t.Fatalf("candidate state = %q, want rejected", v.State)
	}
	if st := mgr.Stats(); st.Rollbacks != 1 || st.State != StateCapturing {
		t.Fatalf("stats after rollback: %+v", st)
	}
}

// TestManagerRetrainNeedsData pins the guard: drift firing before the
// capture buffer holds enough converged pairs sends the manager back to
// capturing instead of training on noise.
func TestManagerRetrainNeedsData(t *testing.T) {
	sys, _ := loadFixture(t)
	mgr, err := NewManager(Config{System: sys, Variant: mtl.VariantSmartPGSim})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.Retrain(); err == nil {
		t.Fatal("retrain on an empty capture buffer did not error")
	}
	if mgr.State() != StateCapturing {
		t.Fatalf("state = %v after failed retrain, want capturing", mgr.State())
	}
}
