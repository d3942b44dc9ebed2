package lifecycle

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mtl"
)

// State is a manager's position in the lifecycle loop.
type State int

const (
	// StateCapturing: serving on the incumbent, capturing pairs and
	// watching for drift.
	StateCapturing State = iota
	// StateRetraining: a candidate is being trained on the captured
	// pairs (Retrain is running; it is the only way in).
	StateRetraining
	// StateCanary: a candidate is serving a traffic fraction; arms are
	// being compared.
	StateCanary
)

// String names the state for logs and metrics labels.
func (s State) String() string {
	switch s {
	case StateCapturing:
		return "capturing"
	case StateRetraining:
		return "retraining"
	case StateCanary:
		return "canary"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Action is what the serving layer should do after an observation.
type Action int

const (
	// ActionNone: keep serving.
	ActionNone Action = iota
	// ActionRetrain: drift fired on this observation — start a retrain.
	ActionRetrain
)

// Config assembles a per-system lifecycle manager.
type Config struct {
	// System is the served grid (prepared structure + training path).
	System *core.System
	// Variant is the model family to retrain (must match the incumbent).
	Variant mtl.Variant
	// Clock drives every timestamp and is injected for deterministic
	// tests; nil means the system clock.
	Clock Clock
	// Capture sizes the capture buffer. Dir "" keeps it memory-only;
	// System defaults to the system's name.
	Capture CaptureConfig
	// Drift tunes the detector.
	Drift DriftConfig
	// Canary tunes canary windows.
	Canary CanaryConfig
	// RetrainEpochs/RetrainSeed configure retraining; zero values
	// resolve through core.RetrainOptions defaults.
	RetrainEpochs int
	RetrainSeed   int64
	// Registry, when non-nil, persists every version transition.
	Registry *Registry
	// Logf, when non-nil, receives lifecycle transition lines.
	Logf func(string, ...any)
}

// Stats is a snapshot of a manager's counters for metrics export.
type Stats struct {
	State            State
	IncumbentVersion string
	CandidateVersion string
	Captured         int64 // records ever captured
	Retained         int   // records currently in the buffer
	Flushes          int64 // completed capture disk flushes
	DriftEvents      int64
	Retrains         int64
	Promotions       int64
	Rollbacks        int64
	LastRetrain      time.Duration // wall-clock cost of the last retrain
}

// Manager sequences one system's lifecycle: it owns the capture buffer,
// the drift detector and — during a canary — the canary controller, and
// walks the state machine capturing → retraining → canary →
// promote/rollback → capturing. The serving layer reports outcomes via
// Observe and executes the swaps; the manager decides. Safe for
// concurrent use.
type Manager struct {
	mu  sync.Mutex
	cfg Config
	buf *Buffer
	det *Detector

	state     State
	canary    *Canary
	incumbent string // registry version ID (or fingerprint prefix)
	candidate string
	candModel *mtl.Model

	driftEvents int64
	retrains    int64
	promotions  int64
	rollbacks   int64
	lastRetrain time.Duration
}

// NewManager builds a manager. The capture buffer's system name and
// clock default from the config.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("lifecycle: manager needs a system")
	}
	cfg.Clock = clockOrSystem(cfg.Clock)
	if cfg.Capture.System == "" {
		cfg.Capture.System = cfg.System.Name
	}
	if cfg.Capture.Clock == nil {
		cfg.Capture.Clock = cfg.Clock
	}
	buf, err := NewBuffer(cfg.Capture)
	if err != nil {
		return nil, err
	}
	return &Manager{
		cfg: cfg,
		buf: buf,
		det: NewDetector(cfg.Drift),
	}, nil
}

// System returns the managed system.
func (m *Manager) System() *core.System { return m.cfg.System }

// Capture returns the capture buffer (the serving layer flushes it on
// shutdown via FlushCapture; tests inspect it directly).
func (m *Manager) Capture() *Buffer { return m.buf }

// Detector returns the drift detector (tests inspect windows/baseline).
func (m *Manager) Detector() *Detector { return m.det }

// SetIncumbent records the serving version's identity (registry ID or
// fingerprint) for capture records and stats.
func (m *Manager) SetIncumbent(version string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.incumbent = version
}

// State reports the current lifecycle state.
func (m *Manager) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Canary returns the active canary controller, or nil outside
// StateCanary.
func (m *Manager) Canary() *Canary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.canary
}

// Observe folds one served outcome into the lifecycle: the record is
// captured (converged solutions only — rec.X empty is skipped by the
// buffer conversion later, but the tap only sends converged solves),
// and — while capturing — warm-pipeline outcomes feed the drift
// detector. Returns ActionRetrain exactly once per drift event, on the
// observation that closed the firing window. A drift event leaves the
// state at capturing — only Retrain enters StateRetraining, and a
// server that only captures never calls it — and re-baselines the
// detector on the traffic now arriving, so it keeps watching for the
// next regime change.
func (m *Manager) Observe(rec Record) Action {
	if rec.ModelVersion == "" {
		m.mu.Lock()
		rec.ModelVersion = m.incumbent
		m.mu.Unlock()
	}
	m.buf.Append(rec)
	if !rec.Warm {
		return ActionNone
	}
	m.mu.Lock()
	capturing := m.state == StateCapturing
	m.mu.Unlock()
	if !capturing {
		return ActionNone
	}
	if m.det.Observe(rec.WarmConverged, rec.Iterations) {
		m.mu.Lock()
		m.driftEvents++
		m.mu.Unlock()
		m.logf("drift detected on %s after %d windows (baseline hit rate %.2f)",
			m.cfg.System.Name, m.det.Windows(), firstOf(m.det.Baseline))
		m.det.Reset()
		return ActionRetrain
	}
	return ActionNone
}

// firstOf adapts a (a, b, c) triple-returning call to its first value.
func firstOf(f func() (float64, float64, bool)) float64 {
	v, _, _ := f()
	return v
}

// Retrain trains a candidate on the captured pairs via the exact
// offline path (core.(*System).Retrain), registers it with the registry
// (when configured) and opens the canary window. It is synchronous —
// the serving layer decides whether to call it inline (deterministic
// tests, benchmarks) or from a background goroutine (production).
func (m *Manager) Retrain() (*mtl.Model, string, error) {
	m.mu.Lock()
	if m.state == StateCanary {
		m.mu.Unlock()
		return nil, "", fmt.Errorf("lifecycle: %s already in a canary window", m.cfg.System.Name)
	}
	m.state = StateRetraining
	m.mu.Unlock()

	recs := m.buf.Snapshot()
	set := ToSet(m.cfg.System.Name, m.cfg.System.Case.NB(), recs)
	t0 := m.cfg.Clock.Now()
	cand, err := m.cfg.System.Retrain(m.cfg.Variant, set, core.RetrainOptions{
		Epochs: m.cfg.RetrainEpochs,
		Seed:   m.cfg.RetrainSeed,
		Logf:   m.cfg.Logf,
	})
	elapsed := m.cfg.Clock.Now().Sub(t0)
	if err != nil {
		m.mu.Lock()
		m.state = StateCapturing // not enough data yet; keep capturing
		m.mu.Unlock()
		m.det.Reset()
		return nil, "", err
	}
	version := "cand-" + cand.Fingerprint()[:12]
	if m.cfg.Registry != nil {
		v, rerr := m.cfg.Registry.SaveCandidate(m.cfg.System.Name,
			cand, fmt.Sprintf("retrain on %d captured pairs", len(set.Samples)))
		if rerr != nil {
			m.mu.Lock()
			m.state = StateCapturing
			m.mu.Unlock()
			return nil, "", rerr
		}
		version = v.ID
	}
	m.mu.Lock()
	m.retrains++
	m.lastRetrain = elapsed
	m.candidate = version
	m.candModel = cand
	m.canary = NewCanary(m.cfg.Canary)
	m.state = StateCanary
	m.mu.Unlock()
	m.logf("retrained %s on %d captured pairs in %v — canary %s at %.0f%% traffic",
		m.cfg.System.Name, len(set.Samples), elapsed, version, 100*m.cfg.Canary.withDefaults().Frac)
	return cand, version, nil
}

// BeginCanaryWith installs an externally produced candidate (tests, a
// deliberately degraded model, an operator push) instead of retraining.
func (m *Manager) BeginCanaryWith(cand *mtl.Model, note string) (string, error) {
	version := "cand-" + cand.Fingerprint()[:12]
	if m.cfg.Registry != nil {
		v, err := m.cfg.Registry.SaveCandidate(m.cfg.System.Name, cand, note)
		if err != nil {
			return "", err
		}
		version = v.ID
	}
	m.mu.Lock()
	m.candidate = version
	m.candModel = cand
	m.canary = NewCanary(m.cfg.Canary)
	m.state = StateCanary
	m.mu.Unlock()
	return version, nil
}

// CandidateModel returns the canary candidate and its version.
func (m *Manager) CandidateModel() (*mtl.Model, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.candModel, m.candidate
}

// Decide evaluates the open canary window (Undecided outside
// StateCanary).
func (m *Manager) Decide() Decision {
	m.mu.Lock()
	c := m.canary
	m.mu.Unlock()
	if c == nil {
		return Undecided
	}
	return c.Decide()
}

// CompletePromotion closes the canary with a promotion: the candidate
// becomes the incumbent (registry updated when configured), the drift
// detector re-baselines on the new model, and the state returns to
// capturing. The serving layer performs the actual model swap before
// calling this.
func (m *Manager) CompletePromotion() error {
	m.mu.Lock()
	if m.state != StateCanary {
		m.mu.Unlock()
		return fmt.Errorf("lifecycle: %s has no canary to promote", m.cfg.System.Name)
	}
	cand := m.candidate
	m.mu.Unlock()
	if m.cfg.Registry != nil {
		if err := m.cfg.Registry.Promote(m.cfg.System.Name, cand); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.incumbent = cand
	m.candidate, m.candModel, m.canary = "", nil, nil
	m.promotions++
	m.state = StateCapturing
	m.mu.Unlock()
	m.det.Reset()
	m.logf("promoted %s on %s — re-baselining drift detector", cand, m.cfg.System.Name)
	return nil
}

// CompleteRollback closes the canary with a rollback: the candidate is
// rejected, the incumbent keeps serving, and the drift detector
// re-baselines (the drift that triggered the retrain is still real, but
// re-arming immediately would re-fire on the same traffic forever; the
// fresh baseline gives the next capture window a chance to gather
// different data).
func (m *Manager) CompleteRollback() error {
	m.mu.Lock()
	if m.state != StateCanary {
		m.mu.Unlock()
		return fmt.Errorf("lifecycle: %s has no canary to roll back", m.cfg.System.Name)
	}
	cand := m.candidate
	m.mu.Unlock()
	if m.cfg.Registry != nil {
		if err := m.cfg.Registry.Reject(m.cfg.System.Name, cand); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.candidate, m.candModel, m.canary = "", nil, nil
	m.rollbacks++
	m.state = StateCapturing
	m.mu.Unlock()
	m.det.Reset()
	m.logf("rolled back candidate %s on %s — incumbent keeps serving", cand, m.cfg.System.Name)
	return nil
}

// FlushCapture flushes the capture buffer to disk (fsync'd). The
// serving daemon calls it on the drain stage of its two-stage shutdown.
func (m *Manager) FlushCapture() error { return m.buf.Flush() }

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		State:            m.state,
		IncumbentVersion: m.incumbent,
		CandidateVersion: m.candidate,
		Captured:         m.buf.Total(),
		Retained:         m.buf.Len(),
		Flushes:          m.buf.Flushes(),
		DriftEvents:      m.driftEvents,
		Retrains:         m.retrains,
		Promotions:       m.promotions,
		Rollbacks:        m.rollbacks,
		LastRetrain:      m.lastRetrain,
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}
