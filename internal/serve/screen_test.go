package serve

import (
	"encoding/json"
	"fmt"
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
	ref := (&scopf.Engine{Prepared: sys.OPF, Workers: 2}).Run(scenarios)
	sum := scopf.Summarize(ref.Outcomes)

	cons := scopf.Contingencies(sys.Case)
	if resp.Scenarios != 2*(len(cons)+1) || resp.Scenarios != sum.Total {
		t.Fatalf("scenarios = %d, want %d", resp.Scenarios, sum.Total)
	}
	if resp.Classes != len(cons)+1 || len(resp.ClassStats) != resp.Classes {
		t.Fatalf("classes = %d (%d stats), want %d", resp.Classes, len(resp.ClassStats), len(cons)+1)
	}
	if resp.Feasible != sum.Feasible || resp.Errors != sum.Errors || resp.ErrorIterations != sum.ErrorIterations || resp.WorstCost != sum.WorstCost {
		t.Fatalf("summary (%d feasible, %d errors in %d iterations, worst %v) != engine (%d, %d, %d, %v)",
			resp.Feasible, resp.Errors, resp.ErrorIterations, resp.WorstCost, sum.Feasible, sum.Errors, sum.ErrorIterations, sum.WorstCost)
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

// A screening sweep's KKT inertia corrections reach the counter
// /v1/solve feeds: it reads the sum over the sweep's outcomes (rejected
// warm attempts and terminal solves), which a cold case9 sweep makes
// nonzero.
func TestScreenCountsInertiaCorrections(t *testing.T) {
	sys, _ := loadFixture(t)
	s := newTestServer(t, Config{Workers: 2}, sys, nil)
	h := s.Handler()
	if code, body := postScreen(t, h, `{"system":"case9","n_draws":2,"seed":4}`); code != http.StatusOK {
		t.Fatalf("status = %d (%s)", code, body)
	}
	_, scenarios, _, err := s.validateScreen(&ScreenRequest{System: "case9", NDraws: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	corrections := 0
	for _, o := range (&scopf.Engine{Prepared: sys.OPF, Workers: 2}).Run(scenarios).Outcomes {
		corrections += o.InertiaCorrections
	}
	if corrections == 0 {
		t.Fatal("the cold case9 sweep made no inertia correction: the check would be vacuous")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := fmt.Sprintf(`pgsimd_kkt_inertia_corrections_total{system="case9"} %d`, corrections); !strings.Contains(rec.Body.String(), want+"\n") {
		t.Fatalf("metrics missing %q:\n%s", want, rec.Body.String())
	}
}

// A warm sweep on case9 (every branch rated) must fit the model's
// intact-system prediction to every outage class (warm mode
// "projected") — no silent cold fallbacks — while leaving feasibility
// identical to a cold sweep.
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
// without solving), all reported through the extended
// class/outcome/summary fields, outcome by outcome in the order
// scopf.Cross lists the scenarios.
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

	// Each draw lists intact, branches 1 and 2, generators 0–2, then the
	// pairs [1,2] and [1,4]; outcome i belongs to draw i/perDraw. Without
	// the intact scenario every other one keeps its answer.
	type outage struct{ b1, b2, g int }
	order := []outage{{-1, -1, -1}, {1, -1, -1}, {2, -1, -1}, {-1, -1, 0}, {-1, -1, 1}, {-1, -1, 2}, {1, 2, -1}, {1, 4, -1}}
	checkOrder := func(outs []ScreenOutcome, per []outage) {
		t.Helper()
		if len(outs) != 2*len(per) {
			t.Fatalf("%d outcomes, want %d", len(outs), 2*len(per))
		}
		for i, o := range outs {
			w := per[i%len(per)]
			if o.Draw != i/len(per) || o.OutBranch != w.b1 || o.OutBranch2 != w.b2 || o.OutGen != w.g {
				t.Fatalf("outcome %d = %+v, want outage %+v of draw %d", i, o, w, i/len(per))
			}
		}
	}
	checkOrder(resp.Outcomes, order)
	code, raw = postScreen(t, h, strings.Replace(body, `"outcomes":true`, `"outcomes":true,"skip_intact":true`, 1))
	if code != http.StatusOK {
		t.Fatalf("skip_intact status = %d (%s)", code, raw)
	}
	skipped := decodeScreen(t, raw)
	checkOrder(skipped.Outcomes, order[1:])
	for i, o := range skipped.Outcomes {
		want := resp.Outcomes[i+1+i/(len(order)-1)] // the same scenario in the full sweep
		if o != want {
			t.Fatalf("skip_intact outcome %d = %+v, want %+v", i, o, want)
		}
	}

	// The screen takes every warm start it has; "cold" is the one way to
	// decline them, and a dispatch-policy field is an unknown field.
	code, raw = postScreen(t, h, `{"system":"case9","n_draws":2,"seed":4,"policy":{"weights":[0,0,0,0,0,0],"threshold":2}}`)
	var er ErrorResponse
	if code != http.StatusBadRequest || json.Unmarshal(raw, &er) != nil || !strings.Contains(er.Error, `unknown field "policy"`) {
		t.Fatalf("policy request = %d (%s), want 400 naming the unknown field", code, raw)
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
		`pgsimd_screen_stalled_total{system="case9"} 0`,
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

	// Generator outages are value edits on the intact problem too: the
	// all-generator sweep factors on the same analysis.
	if code, body := postScreen(t, h, `{"system":"case9","contingencies":[1],"all_gen_outages":true}`); code != http.StatusOK {
		t.Fatalf("screen = %d (%s)", code, body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if want := `pgsimd_screen_kkt_analyses_total{system="case9"} 0`; !strings.Contains(rec.Body.String(), want) {
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
