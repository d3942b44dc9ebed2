package serve

// The predictor seam of serve's tests: registering, swapping and
// canarying an explicit opf.Predictor instead of a trained model forces
// warm-start outcomes (a failing start, a start that takes a known
// path). The model forms are AddSystem, SwapModel and StartCanary.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/opf"
)

// AddSystemPredictors registers a base grid with an explicit predictor
// (nil for cold-only), called from every worker at once. Tests use it to
// force warm-start outcomes; AddSystem is the production path.
func (s *Server) AddSystemPredictors(sys *core.System, p opf.Predictor) {
	s.addSystem(sys, newPredictorVersion(p, "p-fixed"))
}

// newPredictorVersion tags an explicit predictor for serving; nil gives
// no version (cold-only serving).
func newPredictorVersion(p opf.Predictor, version string) *modelVersion {
	if p == nil {
		return nil
	}
	return &modelVersion{version: version, pred: p}
}

// SwapPredictors is SwapModel with an explicit predictor — the test
// seam for forcing warm-start outcomes across a hot swap.
func (s *Server) SwapPredictors(name string, p opf.Predictor, version string) error {
	st, ok := s.systems[name]
	if !ok {
		return fmt.Errorf("serve: swap on unknown system %q", name)
	}
	s.swap(st, newPredictorVersion(p, version), version)
	return nil
}

// StartCanaryPredictors opens a canary window with an explicit
// candidate predictor and controller — the test seam. It does not need
// an attached lifecycle manager; without one, promotion swaps the active
// version and rollback discards the candidate, with no registry
// bookkeeping.
func (s *Server) StartCanaryPredictors(name string, p opf.Predictor, version string, ctl *lifecycle.Canary) error {
	st, ok := s.systems[name]
	if !ok {
		return fmt.Errorf("serve: canary on unknown system %q", name)
	}
	st.canary.Store(&canaryRun{cand: newPredictorVersion(p, version), ctl: ctl})
	return nil
}

// CanaryActive reports whether a canary window is open on a system.
func (s *Server) CanaryActive(name string) bool {
	st, ok := s.systems[name]
	return ok && st.canary.Load() != nil
}
