package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/la"
	"repro/internal/lifecycle"
	"repro/internal/mips"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// degradingPredictor models an environment drifting away from a frozen
// model: the first goodFor predictions come from the real model (warm
// starts converge), every later one is a deterministically
// non-convergent start. Safe for concurrent use, though the lifecycle
// tests drive it sequentially for exact drift timing.
type degradingPredictor struct {
	mu      sync.Mutex
	good    opf.Predictor
	bad     *opf.Start
	goodFor int
	served  int
}

func (p *degradingPredictor) Predict(in la.Vector) *opf.Start {
	p.mu.Lock()
	n := p.served
	p.served++
	p.mu.Unlock()
	if n < p.goodFor {
		return p.good.Predict(in)
	}
	return p.bad
}

// postWarm posts one warm solve with uniform load factors and decodes
// the 200 response.
func postWarm(t *testing.T, h http.Handler, scale float64) *SolveResponse {
	t.Helper()
	code, body := postSolve(t, h, fmt.Sprintf(`{"system":"case9","scale":%v}`, scale))
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, body)
	}
	return decodeSolve(t, body)
}

// TestLifecycleClosedLoopServed drives the whole online model lifecycle
// through the serving layer, deterministically: healthy traffic freezes
// the drift baseline, a regime change (the incumbent's starts stop
// converging) fires the detector on an exact request, the retrain runs
// on the captured (instance, solution) pairs through the offline
// training path, the candidate canaries against the degraded incumbent
// on deterministically split traffic, and promotion hot-swaps it into
// serving — all with an injected clock, no timers, no RNG.
func TestLifecycleClosedLoopServed(t *testing.T) {
	sys, m := loadFixture(t)
	dir := t.TempDir()
	clk := lifecycle.NewFakeClock()
	reg, err := lifecycle.NewRegistry(dir+"/registry", clk)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := reg.SaveIncumbent(sys.Name, m, "boot")
	if err != nil {
		t.Fatal(err)
	}

	// MaxBatch 1 serializes the dispatcher, so observation order equals
	// request order and every lifecycle transition lands on an exact
	// request index.
	s := New(Config{MaxBatch: 1})
	t.Cleanup(s.Close)
	deg := &degradingPredictor{good: m, bad: badStart(sys.OPF.Lay), goodFor: 16}
	s.AddSystemPredictors(sys, deg)
	if err := s.SwapPredictors(sys.Name, deg, inc.ID); err != nil {
		t.Fatal(err)
	}
	mgr, err := lifecycle.NewManager(lifecycle.Config{
		System:  sys,
		Variant: mtl.VariantSmartPGSim,
		Clock:   clk,
		Capture: lifecycle.CaptureConfig{Dir: dir},
		Drift:   lifecycle.DriftConfig{Window: 8, Baseline: 2},
		Canary:  lifecycle.CanaryConfig{Frac: 0.5, Window: 4},

		RetrainEpochs: 40,
		RetrainSeed:   11,
		Registry:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachLifecycle(sys.Name, mgr, false); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Phase 1: 16 healthy requests — two baseline windows. Seeded
	// traffic: the scale sequence is a fixed ramp.
	scaleAt := func(i int) float64 { return 1.0 + 0.002*float64(i%10) }
	for i := 0; i < 16; i++ {
		resp := postWarm(t, h, scaleAt(i))
		if !resp.WarmConverged || resp.ModelVersion != inc.ID || resp.Canary {
			t.Fatalf("baseline request %d: %+v", i, resp)
		}
	}
	if mgr.State() != lifecycle.StateCapturing || mgr.Detector().Fired() {
		t.Fatalf("after baseline: state=%v fired=%v", mgr.State(), mgr.Detector().Fired())
	}

	// Phase 2: the regime changes. Warm starts stop converging (served
	// via the cold restart), and the window closing at request 24 fires
	// the detector.
	for i := 16; i < 24; i++ {
		resp := postWarm(t, h, scaleAt(i))
		if resp.Path != "warm_restart" || !resp.Converged {
			t.Fatalf("degraded request %d: %+v", i, resp)
		}
		if mgr.State() != lifecycle.StateCapturing {
			t.Fatalf("after request %d: state=%v, want capturing until Retrain runs", i, mgr.State())
		}
	}
	if st := mgr.Stats(); st.DriftEvents != 1 || st.Captured != 24 {
		t.Fatalf("stats after drift: %+v", st)
	}

	// Phase 3: retrain on the captured pairs (synchronously — the test
	// is its own scheduler) and open the canary.
	_, candID, err := mgr.Retrain()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartCanary(sys.Name); err != nil {
		t.Fatal(err)
	}
	if !s.CanaryActive(sys.Name) {
		t.Fatal("canary not active")
	}

	// Phase 4: canary traffic. Frac 0.5 routes requests 2, 4, 6, … to
	// the candidate (Bresenham), so arms fill in lockstep and the window
	// decides on the 8th canary request. The incumbent arm keeps
	// failing; the retrained candidate converges — promotion.
	seenCand, seenInc := 0, 0
	for i := 0; s.CanaryActive(sys.Name); i++ {
		if i >= 20 {
			t.Fatal("canary window never closed")
		}
		resp := postWarm(t, h, scaleAt(i))
		if resp.Canary {
			seenCand++
			if resp.ModelVersion != candID {
				t.Fatalf("canary request served version %q, want %q", resp.ModelVersion, candID)
			}
			if !resp.WarmConverged {
				t.Fatalf("retrained candidate did not warm-converge: %+v", resp)
			}
		} else {
			seenInc++
			if resp.ModelVersion != inc.ID {
				t.Fatalf("incumbent request served version %q, want %q", resp.ModelVersion, inc.ID)
			}
		}
	}
	if seenCand != 4 || seenInc != 4 {
		t.Fatalf("canary split = %d/%d, want 4/4", seenCand, seenInc)
	}

	// Promotion: the candidate now serves all traffic under its version,
	// warm-converging again; the registry records the transition.
	if got := s.ServingVersion(sys.Name); got != candID {
		t.Fatalf("serving version = %q after promotion, want %q", got, candID)
	}
	resp := postWarm(t, h, 1.01)
	if resp.ModelVersion != candID || resp.Canary || !resp.WarmConverged {
		t.Fatalf("post-promotion response: %+v", resp)
	}
	man, recovered, err := reg.Manifest(sys.Name)
	if err != nil || recovered {
		t.Fatalf("manifest: %v/%v", err, recovered)
	}
	if man.Incumbent != candID || man.Candidate != "" {
		t.Fatalf("registry after promotion: incumbent=%q candidate=%q", man.Incumbent, man.Candidate)
	}
	if st := mgr.Stats(); st.Promotions != 1 || st.State != lifecycle.StateCapturing {
		t.Fatalf("stats after promotion: %+v", st)
	}

	// The /metrics endpoint exposes the lifecycle counters.
	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, mreq)
	for _, want := range []string{
		`pgsimd_lifecycle_drift_events_total{system="case9"} 1`,
		`pgsimd_lifecycle_retrains_total{system="case9"} 1`,
		`pgsimd_lifecycle_promotions_total{system="case9"} 1`,
		`pgsimd_lifecycle_swaps_total{system="case9"} 2`, // boot registration swap + promotion
		`pgsimd_lifecycle_canary_decisions_total{system="case9",decision="promote"} 1`,
		`pgsimd_lifecycle_canary_solves_total{system="case9",arm="candidate"} 4`,
		`pgsimd_lifecycle_state{system="case9"} 0`,
	} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Shutdown flushes the capture to disk; every served solve is there.
	total := mgr.Stats().Captured
	s.Close()
	recs, err := lifecycle.LoadCapture(dir, sys.Name)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != total {
		t.Fatalf("capture file holds %d records, want %d", len(recs), total)
	}
}

// TestLifecycleShutdownFlushOrdering pins the fix for the shutdown
// race: requests still queued when Close begins are drained by the
// dispatcher first and the capture flush runs after, so the on-disk
// capture includes them.
func TestLifecycleShutdownFlushOrdering(t *testing.T) {
	sys, m := loadFixture(t)
	dir := t.TempDir()
	s := New(Config{MaxBatch: 4})
	s.AddSystem(sys, m)
	mgr, err := lifecycle.NewManager(lifecycle.Config{
		System:  sys,
		Variant: mtl.VariantSmartPGSim,
		Capture: lifecycle.CaptureConfig{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachLifecycle(sys.Name, mgr, false); err != nil {
		t.Fatal(err)
	}

	// One served request, then five more stuffed straight into the
	// dispatcher queue with no handler waiting — exactly the state a
	// SIGTERM-time shutdown sees after the HTTP listener has drained.
	postWarm(t, s.Handler(), 1.01)
	st := s.systems[sys.Name]
	jobs := make([]*job, 5)
	for i := range jobs {
		jobs[i] = &job{st: st, factors: uniform(sys.Case.NB(), 1.0+0.002*float64(i)), resp: make(chan *SolveResponse, 1)}
		s.queue <- jobs[i]
	}
	s.Close()

	// Every queued job completed (drained, not dropped) …
	for i, j := range jobs {
		select {
		case resp := <-j.resp:
			if !resp.Converged {
				t.Fatalf("queued job %d did not converge", i)
			}
		default:
			t.Fatalf("queued job %d was dropped at shutdown", i)
		}
	}
	// … and the post-drain flush captured all six solves.
	recs, err := lifecycle.LoadCapture(dir, sys.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("capture file holds %d records, want 6 (1 served + 5 drained)", len(recs))
	}
	if mgr.Capture().Flushes() < 1 {
		t.Fatal("no capture flush recorded")
	}
}

// TestHotSwapNoDroppedOrMixedResponses is the swap race pin: concurrent
// /v1/solve traffic across repeated forced hot-swaps must lose no
// request and serve every response wholly on one version. Run under
// -race in the race-lifecycle CI job.
func TestHotSwapNoDroppedOrMixedResponses(t *testing.T) {
	sys, m := loadFixture(t)
	s := newTestServer(t, Config{}, sys, m)
	base := s.ServingVersion(sys.Name)
	h := s.Handler()

	const (
		clients   = 8
		perClient = 24
		swaps     = 40
	)
	valid := map[string]bool{base: true, "vA": true, "vB": true}

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	wg.Add(1)
	go func() { // swapper: flips versions as fast as it can
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			v := "vA"
			if i%2 == 1 {
				v = "vB"
			}
			if err := s.SwapModel(sys.Name, m, v); err != nil {
				errs <- err
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// No t.Fatal from here: report through errs instead.
				req := httptest.NewRequest(http.MethodPost, "/v1/solve",
					strings.NewReader(fmt.Sprintf(`{"system":"case9","scale":%v}`, 1.0+0.001*float64(c))))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("client %d request %d: status %d (%s)", c, i, rec.Code, rec.Body.String())
					return
				}
				var resp SolveResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- fmt.Errorf("client %d request %d: bad response: %v", c, i, err)
					return
				}
				if !resp.Converged {
					errs <- fmt.Errorf("client %d request %d did not converge", c, i)
					return
				}
				if !valid[resp.ModelVersion] {
					errs <- fmt.Errorf("client %d request %d served unknown version %q", c, i, resp.ModelVersion)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All requests answered: the solve counters account for every one.
	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, mreq)
	if want := fmt.Sprintf(`pgsimd_http_requests_total{endpoint="/v1/solve",code="200"} %d`, clients*perClient); !strings.Contains(mrec.Body.String(), want) {
		t.Fatalf("metrics missing %q", want)
	}
}

// TestCanaryDegradedCandidateNeverPromoted pins the canary gate: a
// deliberately degraded candidate — trained for a handful of epochs, so
// its warm starts regress measurably against the incumbent — is rolled
// back, never promoted, and serving stays on the incumbent version.
func TestCanaryDegradedCandidateNeverPromoted(t *testing.T) {
	sys, m := loadFixture(t)
	set, err := sys.GenerateData(40, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, _ := set.Split(0.8)
	weak, err := sys.TrainModel(mtl.VariantSmartPGSim, train, 2, 7, nil)
	if err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{MaxBatch: 1}, sys, m)
	base := s.ServingVersion(sys.Name)
	mgr, err := lifecycle.NewManager(lifecycle.Config{
		System:  sys,
		Variant: mtl.VariantSmartPGSim,
		Canary:  lifecycle.CanaryConfig{Frac: 0.5, Window: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachLifecycle(sys.Name, mgr, false); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.BeginCanaryWith(weak, "degraded candidate"); err != nil {
		t.Fatal(err)
	}
	if err := s.StartCanary(sys.Name); err != nil {
		t.Fatal(err)
	}

	for i := 0; s.CanaryActive(sys.Name); i++ {
		if i >= 40 {
			t.Fatal("canary window never closed")
		}
		postWarm(t, s.Handler(), 1.0+0.002*float64(i%10))
	}
	if got := s.ServingVersion(sys.Name); got != base {
		t.Fatalf("degraded candidate was promoted: serving %q, want %q", got, base)
	}
	st := mgr.Stats()
	if st.Rollbacks != 1 || st.Promotions != 0 {
		t.Fatalf("stats after degraded canary: %+v", st)
	}
}

// TestCanaryIdenticalWeightsBitIdentical pins promotion transparency:
// a candidate carrying the incumbent's exact weights serves bit-
// identical solutions on both arms during the canary, is promoted (no
// regression, by construction), and post-promotion solves stay bit-
// identical to the pre-canary reference.
func TestCanaryIdenticalWeightsBitIdentical(t *testing.T) {
	sys, m := loadFixture(t)
	s := newTestServer(t, Config{MaxBatch: 1}, sys, m)

	scale := 1.015
	factors := uniform(sys.Case.NB(), scale)
	ref := sys.SolveWarm(m, factors, dataset.InputVector(sys.OPF.Perturb(factors).Case))
	if !ref.Converged {
		t.Fatal("reference warm solve did not converge")
	}

	mgr, err := lifecycle.NewManager(lifecycle.Config{
		System:  sys,
		Variant: mtl.VariantSmartPGSim,
		Canary:  lifecycle.CanaryConfig{Frac: 0.5, Window: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachLifecycle(sys.Name, mgr, false); err != nil {
		t.Fatal(err)
	}
	_, twin := loadFixture(t) // m was handed to the server: a second load is the identical candidate
	candID, err := mgr.BeginCanaryWith(twin, "identical weights")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartCanary(sys.Name); err != nil {
		t.Fatal(err)
	}

	for i := 0; s.CanaryActive(sys.Name); i++ {
		if i >= 20 {
			t.Fatal("canary window never closed")
		}
		resp := postWarm(t, s.Handler(), scale)
		checkVectors(t, resp, ref.Result) // both arms: bit-identical to the reference
	}
	if got := s.ServingVersion(sys.Name); got != candID {
		t.Fatalf("identical-weights candidate not promoted: serving %q", got)
	}
	resp := postWarm(t, s.Handler(), scale)
	if resp.ModelVersion != candID {
		t.Fatalf("post-promotion version = %q, want %q", resp.ModelVersion, candID)
	}
	checkVectors(t, resp, ref.Result) // the swap changed nothing the client can see
}

// TestWarmLoopAllocsZeroAfterSwap extends the zero-allocation contract
// (DESIGN.md §11) across a hot swap: the swapped-in version predicts a
// warm start whose steady-state interior-point iteration still
// allocates nothing, and registration left it warm — the swap does not
// regress the serving loop.
func TestWarmLoopAllocsZeroAfterSwap(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sys, m := loadFixture(t)
	_, twin := loadFixture(t)
	s := newTestServer(t, Config{}, sys, m)
	if err := s.SwapModel(sys.Name, twin, "v-post-swap"); err != nil {
		t.Fatal(err)
	}

	p := s.systems[sys.Name].model().pred
	inst := sys.OPF.Perturb(uniform(sys.Case.NB(), 1.02))
	in := dataset.InputVector(inst.Case)
	// Registration built the never-used twin's float32 weights: its
	// first prediction pays no build (three objects per layer; stray
	// background allocations stay well under one per layer).
	mallocs := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.Predict(in)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	if first, second := mallocs(), mallocs(); first >= second+uint64(len(m.Params())/2) {
		t.Errorf("first Predict after a swap made %d allocations, the second %d — the swapped-in model was registered cold", first, second)
	}
	start := p.Predict(in)
	// Unreachable tolerances keep Step executing the full per-iteration
	// pipeline at the numerical fixed point (the mips alloc-test idiom).
	st := mips.NewStepper(inst.Problem(), start.X,
		&mips.WarmStart{X: start.X, Lam: start.Lam, Mu: start.Mu, Z: start.Z},
		mips.Options{FeasTol: 1e-300, GradTol: 1e-300, CompTol: 1e-300, CostTol: 1e-300, MaxIter: 1 << 20})
	for i := 0; i < 40; i++ {
		if done, err := st.Step(); done {
			t.Fatalf("stepper finished during warm-up (iteration %d): %v", i, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if done, err := st.Step(); done {
			t.Fatalf("stepper finished mid-measurement: %v", err)
		}
	}); n != 0 {
		t.Errorf("warm Step allocates %v times per iteration after a hot swap, want 0", n)
	}
}
