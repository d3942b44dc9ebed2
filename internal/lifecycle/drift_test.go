package lifecycle

import (
	"math/rand"
	"slices"
	"testing"
)

// stationaryTraffic drives the detector with seeded Bernoulli(hit)
// convergence and iteration counts jittered around base, for the given
// number of observations, and reports whether any observation fired.
func stationaryTraffic(d *Detector, rng *rand.Rand, n int, hit float64, baseIters int) bool {
	for i := 0; i < n; i++ {
		conv := rng.Float64() < hit
		iters := baseIters + rng.Intn(3) - 1 // base−1 … base+1
		if d.Observe(conv, iters) {
			return true
		}
	}
	return false
}

// TestDriftStationaryNeverFires is the stability property: over 10 000
// complete windows of stationary seeded traffic (hit rate 0.9, mean
// iterations ~5), the detector must never fire — window-to-window
// sampling noise (σ ≈ 0.03 at Window=100) stays far under the 0.2
// firing threshold.
func TestDriftStationaryNeverFires(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		d := NewDetector(DriftConfig{})
		rng := rand.New(rand.NewSource(seed))
		if stationaryTraffic(d, rng, 10_000*100, 0.9, 5) {
			t.Fatalf("seed %d: detector fired on stationary traffic at window %d", seed, d.Windows())
		}
		if d.Windows() != 10_000 {
			t.Fatalf("seed %d: %d windows observed, want 10000", seed, d.Windows())
		}
	}
}

// TestDriftStepFiresWithinOneWindow is the sensitivity property: an
// injected hit-rate step well past the threshold (0.9 → 0.4) fires
// within one complete window of the step, for every seed and for step
// points both at and inside window boundaries.
func TestDriftStepFiresWithinOneWindow(t *testing.T) {
	const window = 100
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		for _, offset := range []int{0, 37} { // step at a boundary and mid-window
			d := NewDetector(DriftConfig{Window: window})
			rng := rand.New(rand.NewSource(seed))
			// Baseline (4 windows) + 3 stationary windows + offset.
			pre := 7*window + offset
			if stationaryTraffic(d, rng, pre, 0.9, 5) {
				t.Fatalf("seed %d: fired before the step", seed)
			}
			// Degraded regime. The first window closing entirely after the
			// step must fire: at most 2 window closes away when the step
			// lands mid-window (the straddling window may stay under the
			// threshold), exactly 1 at a boundary.
			firedAt := 0 // the window whose close fired
			for i := 0; i < 2*window; i++ {
				if d.Observe(rng.Float64() < 0.4, 5+rng.Intn(3)-1) {
					firedAt = d.Windows()
					break
				}
			}
			if firedAt == 0 {
				t.Fatalf("seed %d offset %d: no fire within two windows of a 0.5 hit-rate step", seed, offset)
			}
			stepWindow := pre / window // complete windows before the step
			if firedAt > stepWindow+2 {
				t.Fatalf("seed %d offset %d: fired at window %d, step at window %d", seed, offset, firedAt, stepWindow)
			}
		}
	}
}

// TestDriftIterationRiseFires pins the second drift axis: hit rate
// steady, but warm iteration counts rising past IterRise.
func TestDriftIterationRiseFires(t *testing.T) {
	d := NewDetector(DriftConfig{Window: 50, Baseline: 2, IterRise: 0.5})
	rng := rand.New(rand.NewSource(9))
	if stationaryTraffic(d, rng, 2*50, 1.0, 6) { // baseline: all converge at ~6 iters
		t.Fatal("fired during baseline")
	}
	fired := false
	for i := 0; i < 50; i++ {
		if d.Observe(true, 12+rng.Intn(3)-1) { // +100 % iterations, still converging
			fired = true
		}
	}
	if !fired {
		t.Fatal("no fire after a 2x warm-iteration rise")
	}
}

// TestDriftEdgeTriggerAndReset pins the edge semantics: Observe returns
// true on the observation that closes a window crossing the threshold,
// and on no other; Reset clears the windows and the baseline.
func TestDriftEdgeTriggerAndReset(t *testing.T) {
	d := NewDetector(DriftConfig{Window: 10, Baseline: 1})
	for i := 0; i < 10; i++ { // baseline window: perfect hit rate
		if d.Observe(true, 5) {
			t.Fatal("fired while accumulating the baseline")
		}
	}
	var edges []int           // the window each edge closed
	for i := 0; i < 30; i++ { // three degraded windows
		if d.Observe(false, 0) {
			if i%10 != 9 {
				t.Fatalf("edge on observation %d of the degraded run, which closes no window", i)
			}
			edges = append(edges, d.Windows())
		}
	}
	if !slices.Equal(edges, []int{2, 3, 4}) {
		t.Fatalf("drift edges closed windows %v, want [2 3 4]", edges)
	}
	d.Reset()
	if d.Windows() != 0 {
		t.Fatal("Reset did not clear the detector")
	}
	if _, _, armed := d.Baseline(); armed {
		t.Fatal("Reset left the baseline armed")
	}
}
