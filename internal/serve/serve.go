// Package serve is the warm-start OPF serving subsystem behind cmd/pgsimd:
// a long-running HTTP/JSON service that turns the Smart-PGSim online
// phase (predict → warm interior-point solve → cold-restart fallback)
// into an always-on solver for concurrent clients.
//
// The server keeps, per base grid, the opf.Prepare'd problem structure
// (admittance matrices, rated-branch subset, bounds, constraint layout)
// and derives each request's instance with (*opf.OPF).Perturb, so a
// request pays only the clone+scale+rebind derivation cost, never a full
// Prepare. Warm starts come from the system's one model, shared by every
// worker, sweep and stream ((*mtl.Model).Predict is safe for concurrent
// use), so no endpoint ever waits for another's use of it.
//
// Concurrent solve requests are micro-batched: a dispatcher coalesces
// requests that arrive within Config.BatchWindow of each other (up to
// Config.MaxBatch) and fans the batch out across the internal/batch
// worker pool. Each request runs the exact offline code path
// (core.System.SolveWarm, or (*opf.OPF).SolveWarm without a start), so
// a served solution is bit-identical to what cmd/pgsim or
// cmd/smartpgsim would compute for the same system, factors and model —
// pinned by the equivalence tests in this package.
//
// The three POST endpoints share one request front — decode (size cap,
// unknown fields rejected), system lookup, validation, one error writer
// — and one way to the model: each request, sweep or stream loads the
// system's {version, predictor} pair once and predicts only with it.
//
// Endpoints:
//
//	POST /v1/solve       solve one load instance (SolveRequest → SolveResponse)
//	POST /v1/screen      N-1 contingency screening sweep (ScreenRequest →
//	                     ScreenResponse) on the topology-aware scopf.Engine
//	POST /v1/trajectory  multi-period OPF trajectory streamed as NDJSON —
//	                     one TrajectoryStep line per step as it completes,
//	                     then a TrajectorySummary — on the internal/horizon
//	                     stepper (chain/predict/cold warm-start modes)
//	GET  /v1/systems     loaded systems, sizes, model availability
//	GET  /healthz        liveness + uptime
//	GET  /metrics        Prometheus text: request/solve counters, warm-start
//	                     hit rate, latency and batch-size histograms, and
//	                     the pgsimd_screen_* / pgsimd_trajectory_* counters
//
// Screening runs outside the micro-batch queue — a sweep is itself a
// batch, fanned out on the worker pool by the engine — and is serialized:
// one screen at a time, a concurrent request sheds with 503.
//
// Trajectories are the daemon's stateful workload: chained state (step
// t−1's solution) stays on the handler's goroutine for the stream's
// whole life. Concurrent trajectories are bounded by the in-flight solve
// limit; a client disconnect between steps aborts the run and frees the
// stream slot immediately.
//
// Backpressure is explicit: at most Config.QueueDepth requests wait for
// the dispatcher; beyond that the server sheds load with 503 rather than
// queueing unboundedly.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// Config sizes the server. The zero value is usable: every field has a
// serving-appropriate default.
type Config struct {
	// Workers is the solver pool size per micro-batch; 0 resolves through
	// the batch engine's chain (SetDefaultWorkers, then GOMAXPROCS).
	Workers int
	// MaxBatch caps how many queued requests one micro-batch coalesces
	// (default 16).
	MaxBatch int
	// BatchWindow is how long the dispatcher waits after the first
	// queued request for more to arrive. 0 means the 2ms default; a
	// negative value disables the wait entirely — each batch takes only
	// what is already queued.
	BatchWindow time.Duration
	// QueueDepth bounds requests waiting for the dispatcher (default
	// 256); a full queue answers 503.
	QueueDepth int
	// MaxBodyBytes caps a request body (default 1 MiB).
	MaxBodyBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// modelVersion is one model version as served: the predictor all
// workers, sweeps and streams on that version share, tagged with the
// version it carries. A request, sweep or stream loads exactly one
// modelVersion and predicts only with it, so every response is served
// wholly by one version — a hot swap can never mix versions within it.
type modelVersion struct {
	version string
	pred    opf.Predictor
}

// systemState is one registered base grid: the shared prepared problem
// structure plus the atomically swappable warm-start model version (nil
// for cold-only) and, when attached, the model lifecycle.
//
// active is an atomic pointer so SwapModel replaces the version in one
// store with zero dropped requests: in-flight solves keep the version
// they loaded, new solves load the new one. canary, when non-nil,
// carries the candidate's version plus the deterministic traffic
// splitter for the open canary window.
type systemState struct {
	sys    *core.System
	active atomic.Pointer[modelVersion]
	canary atomic.Pointer[canaryRun]

	lc         *lifecycle.Manager // nil when no lifecycle is attached
	lcAuto     bool               // drive retrain/canary automatically
	retraining atomic.Bool        // an auto retrain is in flight
}

// model returns the serving model version, nil for cold-only systems.
func (st *systemState) model() *modelVersion { return st.active.Load() }

// Server is the OPF-serving engine. Register systems with AddSystem
// before exposing Handler; Close stops the dispatcher after the HTTP
// listener has drained.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	systems   map[string]*systemState
	names     []string // registration order, for /v1/systems
	queue     chan *job
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	met       *metrics
	started   time.Time
	screenSem chan struct{} // serializes /v1/screen sweeps
	trajSem   chan struct{} // bounds concurrent /v1/trajectory streams
}

// New builds a server and starts its micro-batch dispatcher.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		systems:   make(map[string]*systemState),
		queue:     make(chan *job, cfg.QueueDepth),
		done:      make(chan struct{}),
		met:       newMetrics(),
		started:   time.Now(),
		screenSem: make(chan struct{}, 1),
		// As many open streams as solves that can be in flight at once:
		// one micro-batch of MaxBatch requests spread over the worker pool.
		trajSem: make(chan struct{}, min(batch.Workers(cfg.Workers), cfg.MaxBatch)),
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/screen", s.handleScreen)
	s.mux.HandleFunc("POST /v1/trajectory", s.handleTrajectory)
	s.mux.HandleFunc("GET /v1/systems", s.handleSystems)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.wg.Add(1)
	go s.dispatch()
	return s
}

// AddSystem registers a base grid, with m (may be nil for cold-only
// serving) as the warm-start model every worker shares. The server takes
// m over and releases its float64 weights (see newModelVersion): save or
// clone it before. Not safe to call once the handler is serving traffic.
func (s *Server) AddSystem(sys *core.System, m *mtl.Model) {
	s.AddSystemVersion(sys, m, "")
}

// AddSystemVersion is AddSystem with an explicit version tag — used
// when the model is registered in a lifecycle registry and responses
// should carry its registry version ID.
func (s *Server) AddSystemVersion(sys *core.System, m *mtl.Model, version string) {
	s.addSystem(sys, newModelVersion(m, version))
}

func (s *Server) addSystem(sys *core.System, mv *modelVersion) {
	st := &systemState{sys: sys}
	if mv != nil {
		st.active.Store(mv)
	}
	if _, dup := s.systems[sys.Name]; !dup {
		s.names = append(s.names, sys.Name)
	}
	s.systems[sys.Name] = st
}

// newModelVersion tags a model for serving. An empty version tags it
// with the model's content fingerprint; a nil model gives no version
// (cold-only serving). The model itself is served, not a copy: its
// float32 serving weights are built here, so the first request pays no
// conversion, and its float64 masters released (mtl.Model.Release), so
// it is resident once. The caller hands the model over: it can no
// longer save, clone or train it.
func newModelVersion(m *mtl.Model, version string) *modelVersion {
	if m == nil {
		return nil
	}
	if version == "" {
		version = "m-" + m.Fingerprint()[:12]
	}
	m.Release()
	return &modelVersion{version: version, pred: m}
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the dispatcher after completing every queued request,
// then flushes every attached lifecycle capture buffer to disk. The
// ordering is the point: the flush runs after the dispatcher drain, so
// the capture file includes every solve that was still queued at
// shutdown — and after any in-flight auto retrain, which runs on the
// same WaitGroup. Call Close after the HTTP server has drained
// (http.Server.Shutdown), so no handler is left waiting on the queue.
// Safe to call more than once (signal path and deferred cleanup).
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.wg.Wait()
		for _, name := range s.names {
			if lc := s.systems[name].lc; lc != nil {
				_ = lc.FlushCapture() // a capture flush failure must not block shutdown
			}
		}
	})
}

// decode is the request front shared by the POST endpoints: it reads one
// JSON body under the size cap, rejecting unknown fields, and on failure
// answers 400 itself and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, endpoint string, req any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// system resolves a request's system field: empty is a malformed
// request, an unregistered name is errUnknownSystem.
func (s *Server) system(name string) (*systemState, error) {
	if name == "" {
		return nil, fmt.Errorf("missing required field %q", "system")
	}
	st, ok := s.systems[name]
	if !ok {
		return nil, errUnknownSystem
	}
	return st, nil
}

// reject answers a request that failed validation: 404 for an unknown
// system, 400 for everything else. Validation error text is written for
// the client.
func (s *Server) reject(w http.ResponseWriter, endpoint string, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, errUnknownSystem) {
		code = http.StatusNotFound
	}
	s.writeError(w, endpoint, code, err.Error())
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/solve"
	var req SolveRequest
	if !s.decode(w, r, endpoint, &req) {
		return
	}
	st, factors, err := s.validate(&req)
	if err != nil {
		s.reject(w, endpoint, err)
		return
	}
	j := &job{st: st, cold: req.Cold, factors: factors, resp: make(chan *SolveResponse, 1)}
	select {
	case s.queue <- j:
	default:
		s.writeError(w, endpoint, http.StatusServiceUnavailable, "solve queue full, retry later")
		return
	}
	select {
	case resp := <-j.resp:
		s.writeJSON(w, endpoint, http.StatusOK, resp)
	case <-r.Context().Done():
		// Client gone; the solve still completes (resp is buffered) and
		// its metrics are recorded, but there is nobody to answer.
	}
}

func (s *Server) handleSystems(w http.ResponseWriter, r *http.Request) {
	out := SystemsResponse{Systems: make([]SystemInfo, 0, len(s.names))}
	for _, name := range s.names {
		st := s.systems[name]
		c, lay := st.sys.Case, st.sys.OPF.Lay
		out.Systems = append(out.Systems, SystemInfo{
			Name: name, Buses: c.NB(), Generators: c.NG(), Branches: c.NL(),
			NLam: lay.NEq, NMu: lay.NIq, Model: st.model() != nil,
		})
	}
	s.writeJSON(w, "/v1/systems", http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, "/healthz", http.StatusOK, HealthResponse{
		Status:  "ok",
		Systems: len(s.systems),
		UptimeS: time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.render(w, len(s.queue), s.kktStats(), s.lifecycleStats())
	s.met.inc(s.met.requests, 1, "/metrics", "200")
}

// kktStats snapshots every registered grid's KKT symbolic-cache counters
// in registration order. The caches live on the prepared OPF structures,
// so the counters cover all solves of the grid — warm, cold and
// fallback — across all requests since the system was registered.
func (s *Server) kktStats() []kktStat {
	out := make([]kktStat, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, kktStat{system: name, stats: s.systems[name].sys.OPF.KKTStats()})
	}
	return out
}

// writeJSON answers with a JSON body and counts the response under its
// endpoint label.
func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // a failed write means the client is gone
	s.met.inc(s.met.requests, 1, endpoint, strconv.Itoa(code))
}

func (s *Server) writeError(w http.ResponseWriter, endpoint string, code int, msg string) {
	s.writeJSON(w, endpoint, code, ErrorResponse{Error: msg})
}
