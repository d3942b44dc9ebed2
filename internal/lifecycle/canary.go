package lifecycle

import "sync"

// CanaryConfig tunes a canary window.
type CanaryConfig struct {
	// Frac is the fraction of warm traffic routed to the candidate
	// (default 0.2). Clamped to (0, 1].
	Frac float64
	// Window is the minimum warm-attempt observations each arm needs
	// before a decision (default 32).
	Window int
	// MaxIterRegression is the allowed relative rise of the candidate's
	// mean warm iteration count over the incumbent's before the
	// candidate counts as a regression (default 0.05). Iteration means
	// are additionally compared with an absolute slack of half an
	// iteration, so integer-count jitter on small means cannot veto an
	// equivalent candidate.
	MaxIterRegression float64
	// MaxHitRateDrop is the allowed absolute warm-start hit-rate drop of
	// the candidate arm under the incumbent arm (default 0.02).
	MaxHitRateDrop float64
}

func (c CanaryConfig) withDefaults() CanaryConfig {
	if c.Frac <= 0 || c.Frac > 1 {
		c.Frac = 0.2
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.MaxIterRegression == 0 {
		c.MaxIterRegression = 0.05
	}
	if c.MaxHitRateDrop == 0 {
		c.MaxHitRateDrop = 0.02
	}
	return c
}

// Decision is the outcome of a canary window.
type Decision int

const (
	// Undecided: one of the arms has not reached Window observations.
	Undecided Decision = iota
	// Promote: the candidate showed no regression against the incumbent.
	Promote
	// Rollback: the candidate regressed (hit rate or warm iterations).
	Rollback
)

// String names the decision for logs and metrics labels.
func (d Decision) String() string {
	switch d {
	case Promote:
		return "promote"
	case Rollback:
		return "rollback"
	default:
		return "undecided"
	}
}

// armStats accumulates one arm's warm-attempt outcomes.
type armStats struct {
	n       int // warm attempts observed
	hits    int // warm attempts that converged without restart
	iterSum int // iterations over converged warm solves
}

func (a armStats) hitRate() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.hits) / float64(a.n)
}

func (a armStats) meanIters() float64 {
	if a.hits == 0 {
		return 0
	}
	return float64(a.iterSum) / float64(a.hits)
}

// Canary splits warm traffic between the incumbent and a candidate
// model and decides promotion from measured outcomes. Routing is
// deterministic — a Bresenham error accumulator, no RNG — so the k-th
// request of a seeded traffic replay always lands on the same arm, and
// the candidate receives exactly ⌊n·Frac⌋..⌈n·Frac⌉ of the first n
// requests. Safe for concurrent use.
type Canary struct {
	mu  sync.Mutex
	cfg CanaryConfig
	acc float64 // Bresenham accumulator in [0, 1)

	incumbent armStats
	candidate armStats
}

// NewCanary builds a canary window with cfg's defaults applied.
func NewCanary(cfg CanaryConfig) *Canary {
	return &Canary{cfg: cfg.withDefaults()}
}

// Frac reports the resolved candidate traffic fraction.
func (c *Canary) Frac() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Frac
}

// Window reports the per-arm observation requirement.
func (c *Canary) Window() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Window
}

// Route assigns the next warm request to an arm: true = candidate.
func (c *Canary) Route() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acc += c.cfg.Frac
	if c.acc >= 1 {
		c.acc -= 1
		return true
	}
	return false
}

// Observe records one warm-pipeline outcome on the given arm.
func (c *Canary) Observe(candidate, warmConverged bool, iterations int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	arm := &c.incumbent
	if candidate {
		arm = &c.candidate
	}
	arm.n++
	if warmConverged {
		arm.hits++
		arm.iterSum += iterations
	}
}

// Stats reports each arm's measured hit rate and mean warm iterations.
func (c *Canary) Stats() (incHit, incIters, candHit, candIters float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incumbent.hitRate(), c.incumbent.meanIters(),
		c.candidate.hitRate(), c.candidate.meanIters()
}

// Decide evaluates the canary window: Undecided until both arms carry
// Window observations, then Promote exactly when the candidate shows no
// regression — its hit rate within MaxHitRateDrop of the incumbent's
// and its mean warm iteration count within MaxIterRegression (plus half
// an iteration of absolute slack). A candidate with zero warm hits
// never promotes; an incumbent with zero warm hits loses to any
// candidate that converges at all (that is the drift scenario the
// retrain exists for).
func (c *Canary) Decide() Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.incumbent.n < c.cfg.Window || c.candidate.n < c.cfg.Window {
		return Undecided
	}
	if c.candidate.hits == 0 {
		return Rollback
	}
	if c.incumbent.hitRate()-c.candidate.hitRate() > c.cfg.MaxHitRateDrop {
		return Rollback
	}
	if c.incumbent.hits == 0 {
		return Promote
	}
	incIters, candIters := c.incumbent.meanIters(), c.candidate.meanIters()
	if candIters > incIters*(1+c.cfg.MaxIterRegression)+0.5 {
		return Rollback
	}
	return Promote
}
