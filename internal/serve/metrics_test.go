package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/mtl"
	"repro/internal/opf"
)

// wallClock matches the /metrics sample lines whose values depend on
// wall-clock time — histogram buckets and sums, and the uptime gauge.
// The golden comparison keeps their names (and labels) and drops their
// values.
var wallClock = regexp.MustCompile(`^(\S+(_bucket\{\S+|_sum(\{\S+)?)|pgsimd_uptime_seconds) \S+$`)

// TestMetricsGolden drives a fixed request sequence through a fresh
// server — warm, cold and restarted solves, a hot swap, a screening
// sweep, a completed and a disconnected trajectory, a canary window to
// its decision — and pins /metrics against testdata/metrics.golden,
// captured with this same sequence before metrics.go moved onto the
// labelled-counter type: every HELP/TYPE line and every counter and
// gauge sample must be identical and in the same order (metric names,
// label names and label order are the scrape contract); wall-clock
// samples are compared by name only.
func TestMetricsGolden(t *testing.T) {
	sys, err := core.LoadSystem("case9") // private system: KKT counters start at zero
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.OPF.Solve(nil, opf.Options{})
	if err != nil || !base.Converged {
		t.Fatalf("base solve failed: %v", err)
	}
	good := stubPredictor{start: &opf.Start{X: base.X, Lam: base.Lam, Mu: base.Mu, Z: base.Z}}
	bad := stubPredictor{start: badStart(sys.OPF.Lay)}

	s := New(Config{Workers: 1, MaxBatch: 1})
	t.Cleanup(s.Close)
	s.AddSystemPredictors(sys, good)
	// A capture-only lifecycle manager puts the per-system lifecycle
	// snapshot families on the page.
	mgr, err := lifecycle.NewManager(lifecycle.Config{System: sys, Variant: mtl.VariantSmartPGSim})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachLifecycle("case9", mgr, false); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func(path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s = %d (%s)", path, body, rec.Code, rec.Body)
		}
	}

	post("/v1/solve", `{"system":"case9","scale":1.0}`)              // warm
	post("/v1/solve", `{"system":"case9","scale":1.01,"cold":true}`) // cold
	if code, _ := postSolve(t, h, `{"system":"nope"}`); code != http.StatusNotFound {
		t.Fatalf("unknown system = %d", code)
	}
	post("/v1/screen", `{"system":"case9","contingencies":[1,2],"outcomes":true}`)
	post("/v1/trajectory", `{"system":"case9","steps":3,"seed":2}`)
	// A client that is already gone when streaming starts: the handler
	// answers 200, sees the cancelled context before step 0 and counts
	// the disconnect — no step, deterministically.
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/trajectory",
		strings.NewReader(`{"system":"case9","steps":4,"mode":"predict"}`)).WithContext(gone))

	if err := s.SwapPredictors("case9", bad, "v-bad"); err != nil {
		t.Fatal(err)
	}
	post("/v1/solve", `{"system":"case9","scale":1.02}`) // warm attempt fails → cold restart
	if err := s.SwapPredictors("case9", good, "v-good"); err != nil {
		t.Fatal(err)
	}
	ctl := lifecycle.NewCanary(lifecycle.CanaryConfig{Frac: 0.5, Window: 2})
	if err := s.StartCanaryPredictors("case9", good, "v-cand", ctl); err != nil {
		t.Fatal(err)
	}
	for i := 0; s.CanaryActive("case9"); i++ {
		if i >= 20 {
			t.Fatal("canary window never closed")
		}
		post("/v1/solve", `{"system":"case9","scale":1.0}`)
	}
	for _, path := range []string{"/healthz", "/v1/systems"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		if wallClock.MatchString(line) {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		got = append(got, line)
	}
	raw, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("/metrics line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
