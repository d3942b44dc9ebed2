package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/scopf"
)

func postScreen(t *testing.T, h http.Handler, body string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/screen", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func decodeScreen(t *testing.T, body []byte) *ScreenResponse {
	t.Helper()
	var resp ScreenResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad screen response %s: %v", body, err)
	}
	return &resp
}

func TestScreenValidation(t *testing.T) {
	sys, _ := loadFixture(t)
	s := newTestServer(t, Config{}, sys, nil)
	h := s.Handler()

	cases := []struct {
		name string
		body string
		code int
		want string
	}{
		{"bad json", "{", http.StatusBadRequest, "bad request body"},
		{"missing system", `{}`, http.StatusBadRequest, "system"},
		{"unknown system", `{"system":"case999"}`, http.StatusNotFound, "unknown system"},
		{"draws and n_draws", `{"system":"case9","n_draws":2,"draws":[[1,1,1,1,1,1,1,1,1]]}`, http.StatusBadRequest, "mutually exclusive"},
		{"short draw", `{"system":"case9","draws":[[1,1]]}`, http.StatusBadRequest, "9 buses"},
		{"bad draw value", `{"system":"case9","draws":[[1,1,1,1,-2,1,1,1,1]]}`, http.StatusBadRequest, "draws[0][4]"},
		{"too many draws", `{"system":"case9","n_draws":100000}`, http.StatusBadRequest, "limit"},
		{"negative draws", `{"system":"case9","n_draws":-5}`, http.StatusBadRequest, "n_draws"},
		{"bad spread", `{"system":"case9","n_draws":2,"spread":2}`, http.StatusBadRequest, "spread"},
		{"spread without draws", `{"system":"case9","spread":0.2}`, http.StatusBadRequest, "n_draws"},
		{"bad contingency", `{"system":"case9","contingencies":[99]}`, http.StatusBadRequest, "contingencies[0]"},
		{"bad gen contingency", `{"system":"case9","gen_contingencies":[7]}`, http.StatusBadRequest, "gen_contingencies[0]"},
		{"gen list and all gens", `{"system":"case9","gen_contingencies":[0],"all_gen_outages":true}`, http.StatusBadRequest, "mutually exclusive"},
		{"bad pair", `{"system":"case9","pairs":[[1,99]]}`, http.StatusBadRequest, "pairs[0]"},
		{"nothing to screen", `{"system":"case9","contingencies":[],"skip_intact":true}`, http.StatusBadRequest, "nothing to screen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postScreen(t, h, tc.body)
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
}

// A served cold screening sweep must be bit-identical to running the
// topology-aware engine directly on the same prepared system.
func TestScreenColdMatchesEngine(t *testing.T) {
	sys, _ := loadFixture(t)
	s := newTestServer(t, Config{Workers: 2}, sys, nil)

	code, body := postScreen(t, s.Handler(), `{"system":"case9","n_draws":2,"seed":4,"outcomes":true}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, body)
	}
	resp := decodeScreen(t, body)

	// Reference: identical draws through the engine, no serving layer.
	_, scenarios, _, err := s.validateScreen(&ScreenRequest{System: "case9", NDraws: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := (&scopf.Engine{Base: sys.Case, Prepared: sys.OPF, Workers: 2}).Run(scenarios)
	sum := scopf.Summarize(ref.Outcomes)

	cons := scopf.Contingencies(sys.Case)
	if resp.Scenarios != 2*(len(cons)+1) || resp.Scenarios != sum.Total {
		t.Fatalf("scenarios = %d, want %d", resp.Scenarios, sum.Total)
	}
	if resp.Classes != len(cons)+1 || len(resp.ClassStats) != resp.Classes {
		t.Fatalf("classes = %d (%d stats), want %d", resp.Classes, len(resp.ClassStats), len(cons)+1)
	}
	if resp.Feasible != sum.Feasible || resp.Errors != sum.Errors || resp.WorstCost != sum.WorstCost {
		t.Fatalf("summary (%d feasible, %d errors, worst %v) != engine (%d, %d, %v)",
			resp.Feasible, resp.Errors, resp.WorstCost, sum.Feasible, sum.Errors, sum.WorstCost)
	}
	if resp.WarmConverged != 0 || resp.Projected != 0 {
		t.Fatalf("cold sweep reported warm starts: %+v", resp)
	}
	if len(resp.Outcomes) != resp.Scenarios {
		t.Fatalf("outcomes = %d, want %d", len(resp.Outcomes), resp.Scenarios)
	}
	for i, o := range resp.Outcomes {
		r := ref.Outcomes[i]
		if o.Feasible != r.Feasible || o.Cost != r.Cost || o.Iterations != r.Iterations {
			t.Fatalf("outcome %d: served (%v %v %d) != engine (%v %v %d)",
				i, o.Feasible, o.Cost, o.Iterations, r.Feasible, r.Cost, r.Iterations)
		}
		if o.Draw != i/(len(cons)+1) || o.OutBranch != r.Scenario.OutBranch {
			t.Fatalf("outcome %d mislabeled: %+v", i, o)
		}
	}
}

// A warm sweep on case9 (every branch rated) must project the model's
// intact-layout prediction onto the outage layouts — no silent cold
// fallbacks — while leaving feasibility identical to a cold sweep.
func TestScreenWarmProjection(t *testing.T) {
	sys, m := loadFixture(t)
	s := newTestServer(t, Config{Workers: 2}, sys, m)
	h := s.Handler()

	code, body := postScreen(t, h, `{"system":"case9","n_draws":2,"seed":4}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, body)
	}
	warm := decodeScreen(t, body)
	if warm.WarmConverged == 0 || warm.Projected == 0 {
		t.Fatalf("projection produced no warm hits: %+v", warm)
	}
	for _, cl := range warm.ClassStats {
		switch {
		case cl.OutBranch < 0 && cl.WarmMode != "exact":
			t.Fatalf("intact class mode %q", cl.WarmMode)
		case cl.OutBranch >= 0 && cl.WarmMode != "projected":
			t.Fatalf("outage class %d mode %q", cl.OutBranch, cl.WarmMode)
		}
	}

	code, body = postScreen(t, h, `{"system":"case9","n_draws":2,"seed":4,"cold":true}`)
	if code != http.StatusOK {
		t.Fatalf("cold status = %d (%s)", code, body)
	}
	cold := decodeScreen(t, body)
	if cold.WarmConverged != 0 {
		t.Fatalf("cold sweep warm-started: %+v", cold)
	}
	if warm.Feasible != cold.Feasible {
		t.Fatalf("warm feasibility %d != cold %d", warm.Feasible, cold.Feasible)
	}
	if warm.Feasible > 0 && warm.MeanIterations >= cold.MeanIterations {
		t.Errorf("warm screening mean iterations %.1f not below cold %.1f",
			warm.MeanIterations, cold.MeanIterations)
	}
}

// The full contingency space is reachable over the API: generator
// outages, explicit N-2 pairs (including islanding pairs, classified
// without solving) and a client-supplied dispatch policy, all reported
// through the extended class/outcome/summary fields and bit-identical
// to the engine run directly.
func TestScreenFullContingencySpace(t *testing.T) {
	sys, m := loadFixture(t)
	s := newTestServer(t, Config{Workers: 2}, sys, m)
	h := s.Handler()

	// case9 is a 6-branch ring plus bridges, so every branch pair
	// islands the grid — both pairs exercise the classification path.
	body := `{"system":"case9","n_draws":2,"seed":4,"contingencies":[1,2],` +
		`"all_gen_outages":true,"pairs":[[1,2],[1,4]],"outcomes":true}`
	code, raw := postScreen(t, h, body)
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, raw)
	}
	resp := decodeScreen(t, raw)
	// 2 draws × (intact + 2 branches + 3 gens + 2 pairs) = 16.
	if resp.Scenarios != 16 {
		t.Fatalf("scenarios = %d, want 16", resp.Scenarios)
	}
	if resp.Islanded != 4 {
		t.Fatalf("islanded = %d, want 4 (2 pairs × 2 draws)", resp.Islanded)
	}
	kinds := map[string]int{}
	for _, cl := range resp.ClassStats {
		kinds[cl.Kind]++
		if cl.Kind == "pair" && cl.OutBranch == 1 && cl.OutBranch2 == 2 && !cl.Islanded {
			t.Fatalf("islanding pair class not flagged: %+v", cl)
		}
	}
	if kinds["intact"] != 1 || kinds["branch"] != 2 || kinds["gen"] != 3 || kinds["pair"] != 2 {
		t.Fatalf("class kinds %+v", kinds)
	}
	for _, o := range resp.Outcomes {
		if o.OutBranch == 1 && o.OutBranch2 == 2 {
			if !o.Islanded || o.Iterations != 0 || o.Feasible {
				t.Fatalf("islanding pair outcome %+v", o)
			}
		}
		if o.OutGen >= 0 && o.Err == "" && !o.Feasible && !o.Islanded {
			t.Logf("gen outage infeasible: %+v", o) // legal, just informative
		}
	}

	// A maximally conservative policy (threshold above any sigmoid
	// score) must push every warm-startable scenario to cold and report
	// the count.
	code, raw = postScreen(t, h, `{"system":"case9","n_draws":2,"seed":4,"policy":{"weights":[0,0,0,0,0,0],"threshold":2}}`)
	if code != http.StatusOK {
		t.Fatalf("policy status = %d (%s)", code, raw)
	}
	pol := decodeScreen(t, raw)
	if pol.WarmConverged != 0 || pol.PolicyCold != pol.Scenarios {
		t.Fatalf("conservative policy did not cold-dispatch everything: %+v", pol)
	}
}

func TestScreenMetricsAndBusy(t *testing.T) {
	sys, m := loadFixture(t)
	s := newTestServer(t, Config{Workers: 2}, sys, m)
	h := s.Handler()

	if code, body := postScreen(t, h, `{"system":"case9","contingencies":[1,2]}`); code != http.StatusOK {
		t.Fatalf("screen = %d (%s)", code, body)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	met := rec.Body.String()
	for _, want := range []string{
		`pgsimd_screen_sweeps_total{system="case9"} 1`,
		`pgsimd_screen_scenarios_total{system="case9"} 3`,
		`pgsimd_screen_classes_total{system="case9"} 3`,
		`pgsimd_screen_warm_total{system="case9"}`,
		`pgsimd_screen_projected_total{system="case9"}`,
		`pgsimd_screen_errors_total{system="case9"} 0`,
		// Branch outages factor on the intact system's analysis, on a
		// server that had solved nothing before as on any other.
		`pgsimd_screen_kkt_analyses_total{system="case9"} 0`,
		"pgsimd_screen_latency_seconds_count 1",
		`pgsimd_http_requests_total{endpoint="/v1/screen",code="200"} 1`,
	} {
		if !strings.Contains(met, want) {
			t.Fatalf("metrics missing %q:\n%s", want, met)
		}
	}

	// Generator outages change the layout: each class analyzes once.
	if code, body := postScreen(t, h, `{"system":"case9","contingencies":[1],"all_gen_outages":true}`); code != http.StatusOK {
		t.Fatalf("screen = %d (%s)", code, body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if want := `pgsimd_screen_kkt_analyses_total{system="case9"} 3`; !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, rec.Body.String())
	}

	// A sweep in flight sheds a second request with 503.
	s.screenSem <- struct{}{}
	code, body := postScreen(t, h, `{"system":"case9"}`)
	<-s.screenSem
	if code != http.StatusServiceUnavailable {
		t.Fatalf("busy screen = %d (%s), want 503", code, body)
	}
}
