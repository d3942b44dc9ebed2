package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// fixture shares one loaded system and one trained model's snapshot
// across tests (training dominates the suite's runtime).
var fixture struct {
	once sync.Once
	sys  *core.System
	snap []byte
	err  error
}

// loadFixture returns the shared system and a model freshly loaded from
// the shared snapshot, as the daemon loads one: registering a model
// with a server releases its float64 weights, so no two tests share one.
func loadFixture(t *testing.T) (*core.System, *mtl.Model) {
	t.Helper()
	fixture.once.Do(func() {
		sys, err := core.LoadSystem("case9")
		if err != nil {
			fixture.err = err
			return
		}
		set, err := sys.GenerateData(40, 3)
		if err != nil {
			fixture.err = err
			return
		}
		train, _ := set.Split(0.8)
		m, err := sys.TrainModel(mtl.VariantSmartPGSim, train, 60, 7, nil)
		if err != nil {
			fixture.err = err
			return
		}
		var buf bytes.Buffer
		if fixture.err = m.Save(&buf); fixture.err == nil {
			fixture.sys, fixture.snap = sys, buf.Bytes()
		}
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	m, err := fixture.sys.LoadModel(mtl.VariantSmartPGSim, bytes.NewReader(fixture.snap))
	if err != nil {
		t.Fatal(err)
	}
	return fixture.sys, m
}

func newTestServer(t *testing.T, cfg Config, sys *core.System, m *mtl.Model) *Server {
	t.Helper()
	s := New(cfg)
	s.AddSystem(sys, m)
	t.Cleanup(s.Close)
	return s
}

func postSolve(t *testing.T, h http.Handler, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func decodeSolve(t *testing.T, body []byte) *SolveResponse {
	t.Helper()
	var resp SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad solve response %s: %v", body, err)
	}
	return &resp
}

func uniform(n int, v float64) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = v
	}
	return f
}

func TestRequestValidation(t *testing.T) {
	sys, _ := loadFixture(t)
	s := newTestServer(t, Config{}, sys, nil)
	h := s.Handler()

	cases := []struct {
		name string
		body string
		code int
		want string // substring of the error
	}{
		{"bad json", "{", http.StatusBadRequest, "bad request body"},
		{"unknown field", `{"system":"case9","bogus":1}`, http.StatusBadRequest, "bogus"},
		{"missing system", `{}`, http.StatusBadRequest, "system"},
		{"unknown system", `{"system":"case999"}`, http.StatusNotFound, "unknown system"},
		{"scale and factors", `{"system":"case9","scale":1.0,"factors":[1,1,1,1,1,1,1,1,1]}`, http.StatusBadRequest, "mutually exclusive"},
		{"negative scale", `{"system":"case9","scale":-1}`, http.StatusBadRequest, "out of range"},
		{"absurd scale", `{"system":"case9","scale":1000}`, http.StatusBadRequest, "out of range"},
		{"short factors", `{"system":"case9","factors":[1,1]}`, http.StatusBadRequest, "9 buses"},
		{"bad factor value", `{"system":"case9","factors":[1,1,1,1,-2,1,1,1,1]}`, http.StatusBadRequest, "factors[4]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postSolve(t, h, tc.body)
			if code != tc.code {
				t.Fatalf("status = %d (%s), want %d", code, body, tc.code)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body %s not JSON: %v", body, err)
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.want)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/v1/solve", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/solve = %d, want 405", rec.Code)
		}
	})

	t.Run("oversized body", func(t *testing.T) {
		big := `{"system":"case9","factors":[` + strings.Repeat("1,", 1<<20) + `1]}`
		s2 := newTestServer(t, Config{MaxBodyBytes: 1024}, sys, nil)
		code, _ := postSolve(t, s2.Handler(), big)
		if code != http.StatusBadRequest {
			t.Fatalf("oversized body = %d, want 400", code)
		}
	})
}

// FuzzSolveRequest is the /v1/solve trust boundary: arbitrary bytes
// POSTed to a cold-only case5 server must never panic, may only be
// answered 200, 400 or 404, and every 200 must carry a decodable
// SolveResponse with one voltage angle and magnitude per bus.
func FuzzSolveRequest(f *testing.F) {
	sys, err := core.LoadSystem("case5")
	if err != nil {
		f.Fatal(err)
	}
	s := New(Config{Workers: 1, BatchWindow: -1})
	s.AddSystem(sys, nil)
	f.Cleanup(s.Close)
	h := s.Handler()
	nb := sys.Case.NB()

	f.Add([]byte(`{"system":"case5","scale":1.05}`))
	f.Add([]byte(`{"system":"case5","scale":1.0,"factors":[1,1,1,1,1]}`))
	f.Add([]byte(`{"system":"case5","scale":1e999}`))
	f.Add([]byte(`{"system":"case5","factors":[1,1,-0.5,1,1]}`))
	f.Add([]byte(`{"system":"case5","scale":1.0,"bogus":true}`))
	f.Add([]byte(`{"system":"case5","factors":[1,1,1]}`))
	f.Add([]byte(`{"system":"case5","sca`))
	f.Add([]byte(`{"system":"case5","factors":[` + strings.Repeat("1,", 1<<20) + `1]}`)) // 2 MiB
	f.Fuzz(func(t *testing.T, body []byte) {
		code, out := postSolve(t, h, string(body))
		switch code {
		case http.StatusOK:
			resp := decodeSolve(t, out)
			if len(resp.Va) != nb || len(resp.Vm) != nb {
				t.Fatalf("200 with %d va / %d vm entries, want %d: %s", len(resp.Va), len(resp.Vm), nb, out)
			}
		case http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("status %d for body %q: %s", code, body, out)
		}
	})
}

// TestColdMatchesOffline pins that a served cold solve is bit-identical
// to the offline pgsim path (Perturb + Solve from the default start).
func TestColdMatchesOffline(t *testing.T) {
	sys, _ := loadFixture(t)
	s := newTestServer(t, Config{}, sys, nil)

	factors := uniform(sys.Case.NB(), 1.05)
	code, body := postSolve(t, s.Handler(), `{"system":"case9","scale":1.05}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, body)
	}
	resp := decodeSolve(t, body)
	if resp.Path != "cold" || !resp.Converged || resp.ColdRestarted {
		t.Fatalf("unexpected outcome: %+v", resp)
	}

	ref, err := sys.OPF.Perturb(factors).Solve(nil, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Iterations != ref.Iterations || resp.Cost != ref.Cost {
		t.Fatalf("served (it=%d cost=%v) != offline (it=%d cost=%v)",
			resp.Iterations, resp.Cost, ref.Iterations, ref.Cost)
	}
	checkVectors(t, resp, ref)
}

// TestWarmMatchesOffline pins that a warm-started served solution is
// bit-identical to the offline core.SolveWarm path with the same model.
func TestWarmMatchesOffline(t *testing.T) {
	sys, m := loadFixture(t)
	s := newTestServer(t, Config{}, sys, m)

	scale := 1.02
	factors := uniform(sys.Case.NB(), scale)
	code, body := postSolve(t, s.Handler(), fmt.Sprintf(`{"system":"case9","scale":%v}`, scale))
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, body)
	}
	resp := decodeSolve(t, body)
	if !resp.Converged {
		t.Fatalf("request did not converge: %+v", resp)
	}
	if resp.Path != "warm" && resp.Path != "warm_restart" {
		t.Fatalf("path = %q, want a warm-pipeline path", resp.Path)
	}

	ref := sys.SolveWarm(m, factors, sys.InstanceInput(factors))
	if resp.WarmConverged != ref.Converged {
		t.Fatalf("served warm_converged=%v, offline %v", resp.WarmConverged, ref.Converged)
	}
	if resp.Iterations != ref.Iterations || resp.Cost != ref.Cost {
		t.Fatalf("served (it=%d cost=%v) != offline (it=%d cost=%v)",
			resp.Iterations, resp.Cost, ref.Iterations, ref.Cost)
	}
	checkVectors(t, resp, ref.Result)

	// The warm solution is the same optimum the cold path finds.
	cold, err := sys.OPF.Perturb(factors).Solve(nil, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := resp.Cost/cold.Cost - 1; d > 1e-6 || d < -1e-6 {
		t.Fatalf("warm cost %v deviates from cold optimum %v", resp.Cost, cold.Cost)
	}
}

// TestRegisteredModelHoldsFloat32Only: registering a model releases its
// float64 weights, so a case118-shaped model keeps its float32 copy
// alone live — at most 5 bytes a weight after a collection (4 for the
// copy, the biases and normalizer beside it), where float64 masters
// beside the copy would keep 12.
func TestRegisteredModelHoldsFloat32Only(t *testing.T) {
	sys, err := core.LoadSystem("case118")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	t.Cleanup(s.Close)
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	m := mtl.New(sys.OPF.Lay, core.ModelConfig(mtl.VariantSmartPGSim, 1))
	s.AddSystem(sys, m)
	perWeight := float64(live()-before) / float64(m.NumParams())
	t.Logf("%d weights, %.2f bytes a weight live", m.NumParams(), perWeight)
	if perWeight > 5 {
		t.Fatalf("a registered model of %d weights keeps %.1f bytes a weight live, want at most 5", m.NumParams(), perWeight)
	}
	runtime.KeepAlive(s)
}

// stubPredictor forces a specific warm-start point regardless of input.
type stubPredictor struct{ start *opf.Start }

func (p stubPredictor) Predict(la.Vector) *opf.Start { return p.start }

// badStart is a warm-start point that deterministically does not
// converge on case9 (alternating near-zero/huge voltage magnitudes with
// wild angles — verified to hit the MIPS iteration limit).
func badStart(lay opf.Layout) *opf.Start {
	mk := func(n int, v float64) la.Vector {
		x := make(la.Vector, n)
		for i := range x {
			x[i] = v
		}
		return x
	}
	x := mk(lay.NX, 0)
	for i := 0; i < lay.NB; i++ {
		x[lay.VaOff+i] = float64(i) * 3
		if i%2 == 0 {
			x[lay.VmOff+i] = 1e-6
		} else {
			x[lay.VmOff+i] = 1e4
		}
	}
	return &opf.Start{X: x, Lam: mk(lay.NEq, -1e7), Mu: mk(lay.NIq, 1e-8), Z: mk(lay.NIq, 1e-8)}
}

// TestWarmColdFallback pins the transparent cold restart: a forced
// non-convergent prediction must still produce the converged cold
// solution, flagged as a restart.
func TestWarmColdFallback(t *testing.T) {
	sys, _ := loadFixture(t)
	s := New(Config{})
	t.Cleanup(s.Close)
	s.AddSystemPredictors(sys, stubPredictor{start: badStart(sys.OPF.Lay)})

	code, body := postSolve(t, s.Handler(), `{"system":"case9","scale":1.01}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, body)
	}
	resp := decodeSolve(t, body)
	if resp.Path != "warm_restart" || resp.WarmConverged || !resp.ColdRestarted {
		t.Fatalf("fallback not taken: %+v", resp)
	}
	if !resp.Converged {
		t.Fatal("cold restart did not converge")
	}

	factors := uniform(sys.Case.NB(), 1.01)
	ref, err := sys.OPF.Perturb(factors).Solve(nil, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Iterations != ref.Iterations || resp.Cost != ref.Cost {
		t.Fatalf("restart solution (it=%d cost=%v) != offline cold (it=%d cost=%v)",
			resp.Iterations, resp.Cost, ref.Iterations, ref.Cost)
	}
	checkVectors(t, resp, ref)
	if resp.Timing.RestartUS <= 0 {
		t.Fatalf("restart timing not reported: %+v", resp.Timing)
	}
}

// gatePredictor holds its first Predict call until the gate is closed
// and lets every other call straight through.
type gatePredictor struct {
	start   *opf.Start
	called  atomic.Bool
	entered chan struct{} // closed once the first call is inside Predict
	gate    chan struct{} // the first call returns after this is closed
}

func (p *gatePredictor) Predict(la.Vector) *opf.Start {
	if p.called.CompareAndSwap(false, true) {
		close(p.entered)
		<-p.gate
	}
	return p.start
}

// TestWarmSolveDoesNotWaitOnOtherEndpoints: a stream or a sweep that is
// inside the system's model does not keep a warm /v1/solve from it. The
// holder's first prediction blocks on a gate; the solve must answer 200
// while the gate is still closed. Success is event-driven; the 10 s hang
// timeouts are the only failure path.
func TestWarmSolveDoesNotWaitOnOtherEndpoints(t *testing.T) {
	sys, _ := loadFixture(t)
	base, err := sys.OPF.Solve(nil, opf.Options{})
	if err != nil || !base.Converged {
		t.Fatalf("base solve failed: %v", err)
	}
	for _, holder := range []struct{ name, path, body string }{
		{"trajectory", "/v1/trajectory", `{"system":"case9","steps":2,"mode":"predict","seed":1}`},
		{"screen", "/v1/screen", `{"system":"case9","n_draws":1,"seed":4}`},
	} {
		t.Run(holder.name, func(t *testing.T) {
			gp := &gatePredictor{
				start:   &opf.Start{X: base.X, Lam: base.Lam, Mu: base.Mu, Z: base.Z},
				entered: make(chan struct{}),
				gate:    make(chan struct{}),
			}
			s := New(Config{Workers: 1, MaxBatch: 1})
			s.AddSystemPredictors(sys, gp)
			t.Cleanup(s.Close)

			post := func(path, body string) chan int {
				done := make(chan int, 1)
				go func() {
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
					done <- rec.Code
				}()
				return done
			}
			hang := time.After(10 * time.Second)

			held := post(holder.path, holder.body)
			select {
			case <-gp.entered:
			case <-hang:
				close(gp.gate)
				t.Fatalf("%s never reached the predictor", holder.path)
			}
			select {
			case code := <-post("/v1/solve", `{"system":"case9","scale":1.01}`):
				if code != http.StatusOK {
					t.Errorf("warm solve beside an open %s = %d, want 200", holder.path, code)
				}
			case <-hang:
				t.Errorf("warm solve waited on %s's use of the model", holder.path)
			}
			select {
			case code := <-held:
				t.Errorf("%s answered %d with its first prediction still gated", holder.path, code)
			default:
			}
			close(gp.gate)
			select {
			case code := <-held:
				if code != http.StatusOK {
					t.Errorf("%s = %d after the gate opened, want 200", holder.path, code)
				}
			case <-hang:
				t.Fatalf("%s did not complete after the gate opened", holder.path)
			}
		})
	}
}

// TestWarmEdgesOnTheWire pins the two corners of the warm pipeline's
// reporting that no converged request reaches: a predictor that offers
// no start is one solve from the default point reported as the warm
// attempt, and when neither the warm try nor the cold restart converges
// the response carries the warm attempt's numbers.
func TestWarmEdgesOnTheWire(t *testing.T) {
	sys, _ := loadFixture(t)

	s := New(Config{})
	t.Cleanup(s.Close)
	s.AddSystemPredictors(sys, stubPredictor{})
	code, body := postSolve(t, s.Handler(), `{"system":"case9","scale":1.01}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, body)
	}
	resp := decodeSolve(t, body)
	if resp.Path != "warm" || !resp.WarmConverged || resp.ColdRestarted || !resp.Converged || resp.Timing.RestartUS != 0 {
		t.Fatalf("no start offered: %+v", resp)
	}
	cold, err := sys.OPF.Perturb(uniform(sys.Case.NB(), 1.01)).Solve(nil, opf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Iterations != cold.Iterations || resp.Cost != cold.Cost {
		t.Fatalf("no start offered: (it=%d cost=%v) != offline cold (it=%d cost=%v)",
			resp.Iterations, resp.Cost, cold.Iterations, cold.Cost)
	}
	checkVectors(t, resp, cold)

	// Three times the nominal load is infeasible on case9: the bad start
	// and the restart both run into the iteration limit.
	s2 := New(Config{})
	t.Cleanup(s2.Close)
	bad := badStart(sys.OPF.Lay)
	s2.AddSystemPredictors(sys, stubPredictor{start: bad})
	code, body = postSolve(t, s2.Handler(), `{"system":"case9","scale":3}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, body)
	}
	resp = decodeSolve(t, body)
	if resp.Path != "warm_restart" || resp.WarmConverged || !resp.ColdRestarted || resp.Converged || resp.Timing.RestartUS <= 0 {
		t.Fatalf("nothing converges: %+v", resp)
	}
	inst := sys.OPF.Perturb(uniform(sys.Case.NB(), 3))
	warm, _ := inst.Solve(bad, opf.Options{})
	restart, _ := inst.Solve(nil, opf.Options{})
	if warm.Converged || restart.Converged || warm.Cost == restart.Cost {
		t.Fatalf("fixture does not separate the attempts: warm %+v, restart %+v", warm.Cost, restart.Cost)
	}
	if resp.Iterations != warm.Iterations || resp.Cost != warm.Cost {
		t.Fatalf("nothing converges: (it=%d cost=%v) != warm attempt (it=%d cost=%v)",
			resp.Iterations, resp.Cost, warm.Iterations, warm.Cost)
	}
	checkVectors(t, resp, warm)
}

// TestConcurrentDeterminism fires concurrent warm requests through a
// real listener (exercising the micro-batcher and the shared model) and
// pins every response against its sequentially computed offline
// reference.
func TestConcurrentDeterminism(t *testing.T) {
	sys, m := loadFixture(t)
	s := newTestServer(t, Config{Workers: 4, MaxBatch: 8, BatchWindow: 10 * time.Millisecond}, sys, m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	scales := []float64{0.92, 0.95, 0.98, 1.0, 1.02, 1.05, 1.08, 0.92, 1.0, 1.05}
	refs := make([]*core.WarmOutcome, len(scales))
	for i, sc := range scales {
		f := uniform(sys.Case.NB(), sc)
		refs[i] = sys.SolveWarm(m, f, sys.InstanceInput(f))
	}

	type result struct {
		idx  int
		resp *SolveResponse
		err  error
	}
	results := make(chan result, len(scales))
	for i, sc := range scales {
		go func(i int, sc float64) {
			r, err := http.Post(ts.URL+"/v1/solve", "application/json",
				strings.NewReader(fmt.Sprintf(`{"system":"case9","scale":%v}`, sc)))
			if err != nil {
				results <- result{idx: i, err: err}
				return
			}
			defer r.Body.Close()
			body, _ := io.ReadAll(r.Body)
			if r.StatusCode != http.StatusOK {
				results <- result{idx: i, err: fmt.Errorf("status %d: %s", r.StatusCode, body)}
				return
			}
			var resp SolveResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				results <- result{idx: i, err: err}
				return
			}
			results <- result{idx: i, resp: &resp}
		}(i, sc)
	}
	for range scales {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		ref := refs[r.idx]
		if r.resp.Iterations != ref.Iterations || r.resp.Cost != ref.Cost ||
			r.resp.WarmConverged != ref.Converged {
			t.Fatalf("scale %v: served (it=%d cost=%v warm=%v) != offline (it=%d cost=%v warm=%v)",
				scales[r.idx], r.resp.Iterations, r.resp.Cost, r.resp.WarmConverged,
				ref.Iterations, ref.Cost, ref.Converged)
		}
		checkVectors(t, r.resp, ref.Result)
	}
}

func TestSystemsHealthMetrics(t *testing.T) {
	sys, m := loadFixture(t)
	s := newTestServer(t, Config{}, sys, m)
	h := s.Handler()

	// A solve so the counters are non-zero.
	if code, body := postSolve(t, h, `{"system":"case9"}`); code != http.StatusOK {
		t.Fatalf("solve = %d (%s)", code, body)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/systems", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var sr SystemsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Systems) != 1 || sr.Systems[0].Name != "case9" || !sr.Systems[0].Model {
		t.Fatalf("systems = %+v", sr.Systems)
	}
	if sr.Systems[0].Buses != 9 || sr.Systems[0].NLam != sys.OPF.Lay.NEq {
		t.Fatalf("system info = %+v", sr.Systems[0])
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var hr HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Systems != 1 {
		t.Fatalf("health = %+v", hr)
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	met := rec.Body.String()
	for _, want := range []string{
		"pgsimd_warm_attempts_total 1",
		`pgsimd_solves_total{system="case9",path="warm`, // warm or warm_restart
		"pgsimd_solve_latency_seconds_count",
		"pgsimd_batch_size_count 1",
		"pgsimd_queue_depth 0",
		`pgsimd_http_requests_total{endpoint="/v1/solve",code="200"} 1`,
		`pgsimd_kkt_symbolic_analyses_total{system="case9"}`,
		`pgsimd_kkt_numeric_refactors_total{system="case9"}`,
		`pgsimd_kkt_refactor_fallbacks_total{system="case9"}`,
	} {
		if !strings.Contains(met, want) {
			t.Fatalf("metrics missing %q:\n%s", want, met)
		}
	}
	// The solve above ran several interior-point iterations; all but the
	// first factorization of each solve must have been numeric refactors
	// on the grid's cached pattern.
	st := sys.OPF.KKTStats()
	if st.Refactors == 0 || st.Analyses == 0 || st.Orderings == 0 {
		t.Fatalf("kkt stats not aggregated: %+v", st)
	}
	if st.Refactors < st.Analyses {
		t.Fatalf("expected refactors to dominate analyses: %+v", st)
	}
}

// TestQueueFull pins load shedding: with a full queue the server
// answers 503 instead of blocking.
func TestQueueFull(t *testing.T) {
	sys, _ := loadFixture(t)
	s := New(Config{QueueDepth: 1, MaxBatch: 1})
	s.AddSystem(sys, nil)
	// Stop the dispatcher first so the stuffed queue stays full for the
	// handler under test.
	s.Close()
	s.queue <- &job{st: s.systems["case9"], factors: uniform(9, 1), resp: make(chan *SolveResponse, 1)}

	code, body := postSolve(t, s.Handler(), `{"system":"case9"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("full queue = %d (%s), want 503", code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "queue full") {
		t.Fatalf("error body = %s", body)
	}
}

// checkVectors compares the solution vectors of a response against an
// offline opf.Result bit for bit (JSON float64 encoding round-trips
// exactly).
func checkVectors(t *testing.T, resp *SolveResponse, ref *opf.Result) {
	t.Helper()
	cmp := func(name string, got []float64, want la.Vector) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %v, offline %v", name, i, got[i], want[i])
			}
		}
	}
	cmp("va", resp.Va, ref.Va)
	cmp("vm", resp.Vm, ref.Vm)
	cmp("pg", resp.Pg, ref.Pg)
	cmp("qg", resp.Qg, ref.Qg)
}
