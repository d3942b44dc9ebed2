package serve

import (
	"fmt"

	"repro/internal/lifecycle"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// canaryRun is an open canary window on a system: the candidate's
// model version plus the deterministic traffic splitter that routes and
// scores it. It is swapped in and out of systemState.canary atomically;
// clearing it (promotion or rollback) is a CompareAndSwap, so exactly
// one goroutine completes the window.
type canaryRun struct {
	cand *modelVersion
	ctl  *lifecycle.Canary
}

// AttachLifecycle wires a lifecycle manager to a registered system: the
// capture tap records every completed solve, warm outcomes feed the
// drift detector, and — with auto set — a drift event triggers a
// background retrain whose candidate opens a canary window and is
// promoted or rolled back from measured arm statistics without any
// operator action. With auto unset the manager only captures and
// detects; retrains and the opening of a canary window are driven
// explicitly (Manager.Retrain, StartCanary), which is what
// deterministic tests and the benchmark use — the window still closes
// itself on the request that fills it. Not safe to call once the
// handler is serving traffic.
func (s *Server) AttachLifecycle(name string, mgr *lifecycle.Manager, auto bool) error {
	st, ok := s.systems[name]
	if !ok {
		return fmt.Errorf("serve: lifecycle for unknown system %q", name)
	}
	st.lc = mgr
	st.lcAuto = auto
	if mv := st.model(); mv != nil {
		mgr.SetIncumbent(mv.version)
	}
	return nil
}

// Lifecycle returns the manager attached to a system, nil if none.
func (s *Server) Lifecycle(name string) *lifecycle.Manager {
	if st, ok := s.systems[name]; ok {
		return st.lc
	}
	return nil
}

// ServingVersion reports the version tag of a system's active model
// ("" for cold-only systems).
func (s *Server) ServingVersion(name string) string {
	st, ok := s.systems[name]
	if !ok {
		return ""
	}
	if mv := st.model(); mv != nil {
		return mv.version
	}
	return ""
}

// SwapModel hot-swaps a system's serving model: m, version-tagged,
// replaces the active version in a single atomic store. In-flight
// requests finish on the version they loaded — every response is served
// wholly by one version — and no request is dropped or delayed by the
// swap. The attached lifecycle manager (if any) is told the new
// incumbent version.
func (s *Server) SwapModel(name string, m *mtl.Model, version string) error {
	st, ok := s.systems[name]
	if !ok {
		return fmt.Errorf("serve: swap on unknown system %q", name)
	}
	mv := newModelVersion(m, version)
	s.swap(st, mv, mv.version)
	return nil
}

// swap installs mv as a system's active model version in one atomic
// store, tells the attached lifecycle manager (if any) the new incumbent
// version and counts the swap.
func (s *Server) swap(st *systemState, mv *modelVersion, version string) {
	st.active.Store(mv)
	if st.lc != nil {
		st.lc.SetIncumbent(version)
	}
	s.met.inc(s.met.lcSwaps, 1, st.sys.Name)
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

// StartCanary opens a canary window serving the attached manager's
// candidate model (installed by Manager.Retrain or BeginCanaryWith) on
// the manager's configured traffic fraction. Warm requests are split
// deterministically between the incumbent and candidate versions;
// the window closes itself (promote or rollback) once both arms carry
// enough observations.
func (s *Server) StartCanary(name string) error {
	st, ok := s.systems[name]
	if !ok {
		return fmt.Errorf("serve: canary on unknown system %q", name)
	}
	if st.lc == nil {
		return fmt.Errorf("serve: canary on %q needs an attached lifecycle manager", name)
	}
	cand, version := st.lc.CandidateModel()
	if cand == nil {
		return fmt.Errorf("serve: %q has no candidate model (retrain first)", name)
	}
	ctl := st.lc.Canary()
	if ctl == nil {
		return fmt.Errorf("serve: %q has no open canary window", name)
	}
	st.canary.Store(&canaryRun{cand: newModelVersion(cand, version), ctl: ctl})
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

// maybeFinishCanary closes the canary window when its arms have enough
// observations to decide. It runs after every canary-scored solve, so
// the window completes deterministically on the exact request that
// fills it — no timer, no operator.
func (s *Server) maybeFinishCanary(st *systemState, cr *canaryRun) {
	if d := cr.ctl.Decide(); d != lifecycle.Undecided {
		s.completeCanary(st, cr, d)
	}
}

// completeCanary applies a canary decision exactly once (the canary
// pointer CompareAndSwap is the election): on promotion the candidate's
// version becomes the active one — the same zero-drop atomic store
// as SwapModel — and on rollback it is discarded; either way the
// attached manager updates the registry and re-baselines the drift
// detector. Reports whether this call won the election.
func (s *Server) completeCanary(st *systemState, cr *canaryRun, d lifecycle.Decision) bool {
	if !st.canary.CompareAndSwap(cr, nil) {
		return false
	}
	if d == lifecycle.Promote {
		s.swap(st, cr.cand, cr.cand.version)
		if st.lc != nil {
			_ = st.lc.CompletePromotion()
		}
	} else if st.lc != nil {
		_ = st.lc.CompleteRollback()
	}
	s.met.inc(s.met.lcDecisions, 1, st.sys.Name, d.String())
	return true
}

// lifecycleObserve is the per-solve capture tap: it folds the completed
// request into the attached manager (capture buffer + drift detector)
// and, in auto mode, launches the background retrain when drift fires.
func (s *Server) lifecycleObserve(st *systemState, factors, input []float64, resp *SolveResponse, res *opf.Result) {
	if st.lc == nil {
		return
	}
	rec := lifecycle.Record{
		Factors:       factors,
		Input:         input,
		Cost:          resp.Cost,
		Iterations:    resp.Iterations,
		Warm:          resp.Path != "cold",
		WarmConverged: resp.WarmConverged,
		ModelVersion:  resp.ModelVersion,
	}
	if resp.Converged {
		rec.X, rec.Lam, rec.Mu, rec.Z = res.X, res.Lam, res.Mu, res.Z
	}
	if st.lc.Observe(rec) == lifecycle.ActionRetrain {
		s.met.inc(s.met.lcDrift, 1, st.sys.Name)
		if st.lcAuto {
			s.startAutoRetrain(st)
		}
	}
}

// startAutoRetrain launches the drift-triggered retrain + canary open
// in the background, at most one per system at a time. The goroutine
// joins the server WaitGroup, so Close waits for it before flushing
// captures.
func (s *Server) startAutoRetrain(st *systemState) {
	if !st.retraining.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer st.retraining.Store(false)
		if _, _, err := st.lc.Retrain(); err != nil {
			return // not enough captured data yet; the manager resumed capturing
		}
		_ = s.StartCanary(st.sys.Name)
	}()
}

// lcStat is one system's lifecycle snapshot for /metrics.
type lcStat struct {
	system  string
	serving string
	stats   lifecycle.Stats
}

// lifecycleStats snapshots every lifecycle-managed system's counters in
// registration order.
func (s *Server) lifecycleStats() []lcStat {
	out := make([]lcStat, 0, len(s.names))
	for _, name := range s.names {
		st := s.systems[name]
		if st.lc == nil {
			continue
		}
		out = append(out, lcStat{system: name, serving: s.ServingVersion(name), stats: st.lc.Stats()})
	}
	return out
}
