// Package lifecycle closes the offline training loop of Smart-PGSim
// into an online one (DESIGN.md §13): pgsimd computes the ground-truth
// converged solution for every request it serves, so the training
// signal is free at serve time. The package provides the four stages of
// that loop and the state machine that sequences them:
//
//   - Buffer: a bounded capture buffer recording (instance input,
//     converged solution, warm iterations) pairs from served traffic,
//     flushed to disk atomically (tmp + fsync + rename) on the serving
//     daemon's two-stage shutdown.
//   - Detector: a windowed drift detector over the live warm-start
//     hit-rate and iteration-count metrics. Purely deterministic — a
//     function of the observation sequence only — so seeded traffic
//     replays to identical drift decisions.
//   - Registry: a versioned on-disk model store — JSON manifest updated
//     by atomic rename with the previous manifest retained for
//     corruption recovery, content-hashed (sha256) model snapshots
//     verified on load.
//   - Canary: a deterministic traffic splitter (Bresenham accumulator,
//     no RNG) that routes a fraction of requests to a candidate model
//     and compares measured warm iterations and hit rates against the
//     incumbent before promoting.
//
// Manager ties the stages into the per-system state machine
//
//	capturing → retraining → canary → (promote | rollback) → capturing
//
// driven by an injected Clock so every transition is drivable
// deterministically in-process. The serving integration (capture tap,
// canary routing, atomic hot-swap of the served model) lives in
// internal/serve; the retraining itself is core.(*System).Retrain, the
// exact offline path on the captured pairs.
package lifecycle

import "time"

// Clock abstracts time for deterministic lifecycle tests: capture
// timestamps, registry creation times and state-transition times all
// come from an injected Clock, never from time.Now directly.
type Clock interface {
	Now() time.Time
}

// SystemClock is the production Clock: time.Now.
type SystemClock struct{}

// Now returns the wall-clock time.
func (SystemClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced Clock for deterministic tests. The
// zero value starts at the Unix epoch; Advance moves it forward. Not
// safe for concurrent use with Advance — tests advance it between
// request waves, not during them.
type FakeClock struct {
	T time.Time
}

// NewFakeClock starts a fake clock at a fixed, documented instant.
func NewFakeClock() *FakeClock {
	return &FakeClock{T: time.Unix(1700000000, 0).UTC()}
}

// Now returns the current fake time.
func (c *FakeClock) Now() time.Time { return c.T }

// Advance moves the fake clock forward by d.
func (c *FakeClock) Advance(d time.Duration) { c.T = c.T.Add(d) }

// clockOrSystem resolves a possibly-nil Clock to SystemClock.
func clockOrSystem(c Clock) Clock {
	if c == nil {
		return SystemClock{}
	}
	return c
}
