package lifecycle

import "sync"

// DriftConfig tunes the windowed drift detector. The defaults are sized
// so window-to-window sampling noise on stationary traffic sits far
// below the firing thresholds (a hit-rate window of 100 Bernoulli
// observations has a standard deviation of at most 0.05; the 0.2 drop
// threshold is 4σ beyond it), while a real regime change — a hit-rate
// step larger than the threshold or a sustained iteration-count rise —
// fires within one complete window.
type DriftConfig struct {
	// Window is the warm-attempt observations per window (default 100).
	Window int
	// Baseline is how many initial windows freeze the reference
	// statistics before the detector arms (default 4).
	Baseline int
	// HitRateDrop is the absolute live-vs-baseline warm-start hit-rate
	// drop that fires (default 0.2).
	HitRateDrop float64
	// IterRise is the relative rise of the mean warm iteration count
	// that fires (default 0.5, i.e. +50 %).
	IterRise float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Window <= 0 {
		c.Window = 100
	}
	if c.Baseline <= 0 {
		c.Baseline = 4
	}
	if c.HitRateDrop == 0 {
		c.HitRateDrop = 0.2
	}
	if c.IterRise == 0 {
		c.IterRise = 0.5
	}
	return c
}

// Detector watches the live warm-start hit rate and mean warm iteration
// count for drift against a frozen baseline. It is windowed and purely
// deterministic: firing is a function of the observation sequence only
// (no RNG, no wall clock), so seeded traffic replays to identical
// decisions. Safe for concurrent use.
//
// The first Baseline complete windows freeze the reference hit rate and
// mean iteration count; every later window is compared against them on
// close, and each one that crosses a threshold fires. The manager
// resets the detector on the drift event, and again after a promotion
// or rollback re-baselines the model.
type Detector struct {
	mu  sync.Mutex
	cfg DriftConfig

	// current window accumulators
	n       int
	hits    int
	iterSum int

	// baseline accumulation (over the first cfg.Baseline windows)
	baseWindows int
	baseHits    int
	baseN       int
	baseIters   int

	armed   bool
	windows int // complete windows observed
}

// NewDetector builds a detector with cfg's defaults applied.
func NewDetector(cfg DriftConfig) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// Observe feeds one warm-pipeline outcome (whether the warm attempt
// converged, and the accepted solve's iteration count). It returns true
// exactly when this observation closes a window whose statistics cross
// a firing threshold — the drift event edge.
func (d *Detector) Observe(warmConverged bool, iterations int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n++
	if warmConverged {
		d.hits++
		d.iterSum += iterations
	}
	if d.n < d.cfg.Window {
		return false
	}
	// Window closes.
	winN, winHits, winIters := d.n, d.hits, d.iterSum
	d.n, d.hits, d.iterSum = 0, 0, 0
	d.windows++

	if !d.armed {
		d.baseWindows++
		d.baseHits += winHits
		d.baseN += winN
		d.baseIters += winIters
		if d.baseWindows >= d.cfg.Baseline {
			d.armed = true
		}
		return false
	}

	baseHit := float64(d.baseHits) / float64(d.baseN)
	winHit := float64(winHits) / float64(winN)
	if baseHit-winHit > d.cfg.HitRateDrop {
		return true
	}
	// Iteration comparison is over warm-converged solves only: a window
	// with no warm hits already fired (or is heading to fire) on the
	// hit-rate axis, and a restart's iteration count measures the cold
	// solver, not the model.
	if d.baseHits > 0 && winHits > 0 {
		baseIter := float64(d.baseIters) / float64(d.baseHits)
		winIter := float64(winIters) / float64(winHits)
		return baseIter > 0 && winIter > baseIter*(1+d.cfg.IterRise)
	}
	return false
}

// Windows reports complete windows observed since the last Reset.
func (d *Detector) Windows() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.windows
}

// Baseline reports the frozen reference hit rate and mean warm
// iteration count, and whether the detector has armed.
func (d *Detector) Baseline() (hitRate, meanIters float64, armed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.baseN > 0 {
		hitRate = float64(d.baseHits) / float64(d.baseN)
	}
	if d.baseHits > 0 {
		meanIters = float64(d.baseIters) / float64(d.baseHits)
	}
	return hitRate, meanIters, d.armed
}

// Reset clears all state — windows and baseline — so the detector
// re-baselines on the model now serving.
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n, d.hits, d.iterSum = 0, 0, 0
	d.baseWindows, d.baseHits, d.baseN, d.baseIters = 0, 0, 0, 0
	d.armed = false
	d.windows = 0
}
