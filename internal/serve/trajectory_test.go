package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/horizon"
	"repro/internal/opf"
)

// postTrajectory runs one /v1/trajectory request to completion in
// memory and splits the NDJSON body into lines.
func postTrajectory(t *testing.T, h http.Handler, body string) (int, []string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/trajectory", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	raw := strings.TrimRight(rec.Body.String(), "\n")
	if raw == "" {
		return rec.Code, nil
	}
	return rec.Code, strings.Split(raw, "\n")
}

func decodeSteps(t *testing.T, lines []string) ([]TrajectoryStep, TrajectorySummary) {
	t.Helper()
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want steps + summary", len(lines))
	}
	steps := make([]TrajectoryStep, len(lines)-1)
	for i, ln := range lines[:len(lines)-1] {
		if err := json.Unmarshal([]byte(ln), &steps[i]); err != nil {
			t.Fatalf("line %d not a TrajectoryStep: %v (%s)", i, err, ln)
		}
	}
	var sum TrajectorySummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("summary line bad: %v (%s)", err, lines[len(lines)-1])
	}
	return steps, sum
}

func TestTrajectoryValidation(t *testing.T) {
	sys, _ := loadFixture(t)
	s := newTestServer(t, Config{}, sys, nil) // cold-only: no model
	h := s.Handler()

	cases := []struct {
		name string
		body string
		code int
		want string
	}{
		{"bad json", "{", http.StatusBadRequest, "bad request body"},
		{"unknown field", `{"system":"case9","steps":3,"bogus":1}`, http.StatusBadRequest, "bogus"},
		{"missing system", `{"steps":3}`, http.StatusBadRequest, "system"},
		{"unknown system", `{"system":"case999","steps":3}`, http.StatusNotFound, "unknown system"},
		{"zero steps", `{"system":"case9"}`, http.StatusBadRequest, "steps 0 out of range"},
		{"negative steps", `{"system":"case9","steps":-4}`, http.StatusBadRequest, "steps -4 out of range"},
		{"too many steps", `{"system":"case9","steps":513}`, http.StatusBadRequest, "exceeds the limit of 512"},
		{"bad mode", `{"system":"case9","steps":3,"mode":"tepid"}`, http.StatusBadRequest, `mode "tepid" unknown`},
		{"predict without model", `{"system":"case9","steps":3,"mode":"predict"}`, http.StatusBadRequest, "cold-only"},
		{"negative ramp_frac", `{"system":"case9","steps":3,"ramp_frac":-0.1}`, http.StatusBadRequest, "ramp_frac"},
		{"huge ramp_frac", `{"system":"case9","steps":3,"ramp_frac":1.5}`, http.StatusBadRequest, "ramp_frac"},
		{"bad amp", `{"system":"case9","steps":3,"amp":1.5}`, http.StatusBadRequest, "amp"},
		{"bad spread", `{"system":"case9","steps":3,"spread":-0.5}`, http.StatusBadRequest, "spread"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/trajectory", strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.code {
				t.Fatalf("status = %d (%s), want %d", rec.Code, rec.Body.String(), tc.code)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body %s not JSON: %v", rec.Body.String(), err)
			}
			if !strings.Contains(er.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.want)
			}
		})
	}
}

// TestTrajectoryStreamReplay pins the served chain-mode stream against
// the offline horizon runner: lines arrive in step order, the last line
// is the done summary, and every per-step outcome — convergence, warm
// acceptance, ramp flags, iteration counts, cost and dispatch — is
// bit-identical to an offline replay of the same (seed, amp, spread,
// ramp_frac) tuple.
func TestTrajectoryStreamReplay(t *testing.T) {
	sys, _ := loadFixture(t)
	s := newTestServer(t, Config{}, sys, nil)

	const (
		steps  = 4
		seed   = 11
		amp    = 0.03
		spread = 0.01
		frac   = 0.4
	)
	body := fmt.Sprintf(`{"system":"case9","steps":%d,"mode":"chain","seed":%d,"amp":%v,"spread":%v,"ramp_frac":%v}`,
		steps, seed, amp, spread, frac)
	code, lines := postTrajectory(t, s.Handler(), body)
	if code != http.StatusOK {
		t.Fatalf("status = %d (%v)", code, lines)
	}
	if len(lines) != steps+1 {
		t.Fatalf("stream has %d lines, want %d steps + summary", len(lines), steps)
	}
	got, sum := decodeSteps(t, lines)

	// Offline replay through the same horizon runner the CLI uses.
	traj, err := horizon.Synthetic(sys.Case.NB(), steps, seed, amp, spread)
	if err != nil {
		t.Fatal(err)
	}
	ramp := horizon.RampFromRange(sys.OPF, frac)
	r := &horizon.Runner{
		Prepared: sys.OPF,
		Mode:     horizon.ModeChain,
		RampUp:   ramp,
		RampDown: ramp,
		Workers:  1,
	}
	ref, err := r.Run(traj)
	if err != nil {
		t.Fatal(err)
	}

	for i, sr := range ref.Steps {
		ln := got[i]
		if ln.Step != i {
			t.Fatalf("line %d carries step %d: stream out of order", i, ln.Step)
		}
		if ln.Converged != sr.Converged || ln.Warm != sr.WarmUsed ||
			ln.ColdRestarted != sr.ColdRestart || ln.Ramped != sr.Ramped ||
			ln.RampBinding != sr.RampBinding || ln.Iterations != sr.Iterations {
			t.Fatalf("step %d served %+v diverges from offline %+v", i, ln, sr)
		}
		if ln.Cost != sr.Cost {
			t.Fatalf("step %d served cost %v != offline %v", i, ln.Cost, sr.Cost)
		}
		if sr.Result == nil {
			t.Fatalf("offline step %d has no result", i)
		}
		if len(ln.Pg) != len(sr.Result.Pg) {
			t.Fatalf("step %d Pg length %d != %d", i, len(ln.Pg), len(sr.Result.Pg))
		}
		for g := range ln.Pg {
			if ln.Pg[g] != sr.Result.Pg[g] {
				t.Fatalf("step %d gen %d served Pg %v != offline %v", i, g, ln.Pg[g], sr.Result.Pg[g])
			}
		}
	}
	if !sum.Done || sum.System != "case9" || sum.Mode != "chain" {
		t.Fatalf("summary %+v lacks done/system/mode", sum)
	}
	if sum.Steps != steps || sum.Converged != ref.Converged ||
		sum.WarmHits != ref.WarmHits || sum.ColdRestarts != ref.ColdRestarts ||
		sum.Iterations != ref.Iterations {
		t.Fatalf("summary %+v diverges from offline result (conv=%d warm=%d cold=%d it=%d)",
			sum, ref.Converged, ref.WarmHits, ref.ColdRestarts, ref.Iterations)
	}
	if sum.Converged == 0 || sum.WarmHits == 0 {
		t.Fatalf("degenerate trajectory: %+v", sum)
	}
}

// TestTrajectoryPredictReplay pins predict-mode streaming against the
// offline runner with the same stub predictor.
func TestTrajectoryPredictReplay(t *testing.T) {
	sys, _ := loadFixture(t)
	base, err := sys.OPF.Solve(nil, opf.Options{})
	if err != nil || !base.Converged {
		t.Fatalf("base solve failed: %v", err)
	}
	stub := stubPredictor{start: &opf.Start{X: base.X, Lam: base.Lam, Mu: base.Mu, Z: base.Z}}

	s := New(Config{})
	s.AddSystemPredictors(sys, stub)
	t.Cleanup(s.Close)

	const steps = 3
	body := fmt.Sprintf(`{"system":"case9","steps":%d,"mode":"predict","seed":5,"ramp_frac":0}`, steps)
	code, lines := postTrajectory(t, s.Handler(), body)
	if code != http.StatusOK {
		t.Fatalf("status = %d (%v)", code, lines)
	}
	got, sum := decodeSteps(t, lines)

	traj, err := horizon.Synthetic(sys.Case.NB(), steps, 5, 0.05, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	r := &horizon.Runner{
		Prepared:  sys.OPF,
		Mode:      horizon.ModePredict,
		Predictor: stub,
		Workers:   1,
	}
	ref, err := r.Run(traj)
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range ref.Steps {
		ln := got[i]
		if ln.Converged != sr.Converged || ln.Warm != sr.WarmUsed ||
			ln.Iterations != sr.Iterations || ln.Cost != sr.Cost {
			t.Fatalf("step %d served %+v diverges from offline %+v", i, ln, sr)
		}
	}
	if !sum.Done || sum.Converged != ref.Converged || sum.WarmHits != ref.WarmHits {
		t.Fatalf("summary %+v diverges from offline (conv=%d warm=%d)", sum, ref.Converged, ref.WarmHits)
	}
}

// TestTrajectoryDisconnectFreesSlot pins the mid-stream abort path: a
// client that drops the connection after the first line must release
// the stream slot, so a follow-up trajectory on the same system
// succeeds.
func TestTrajectoryDisconnectFreesSlot(t *testing.T) {
	sys, _ := loadFixture(t)
	base, err := sys.OPF.Solve(nil, opf.Options{})
	if err != nil || !base.Converged {
		t.Fatalf("base solve failed: %v", err)
	}
	stub := stubPredictor{start: &opf.Start{X: base.X, Lam: base.Lam, Mu: base.Mu, Z: base.Z}}

	// One worker, one stream slot: a leak turns the follow-up request
	// into a 503.
	s := New(Config{Workers: 1, MaxBatch: 1})
	s.AddSystemPredictors(sys, stub)
	t.Cleanup(s.Close)
	if cap(s.trajSem) != 1 {
		t.Fatalf("trajSem capacity %d, want 1", cap(s.trajSem))
	}

	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := `{"system":"case9","steps":512,"mode":"predict","seed":1}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/trajectory", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// The slot is held while the stream is live.
	if len(s.trajSem) != 1 {
		t.Fatalf("trajSem holds %d slots mid-stream, want 1", len(s.trajSem))
	}
	// Read one streamed step, then drop the connection.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var first TrajectoryStep
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line bad: %v (%s)", err, sc.Text())
	}
	if first.Step != 0 {
		t.Fatalf("first line is step %d, want 0", first.Step)
	}
	cancel()

	// The handler notices between steps and returns the stream slot
	// (deferred). Poll the slot accounting back to empty.
	deadline := time.Now().Add(10 * time.Second)
	for len(s.trajSem) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after disconnect: sem=%d, want 0", len(s.trajSem))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The disconnect is accounted and the freed slot serves a new stream.
	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrec, mreq)
	if !strings.Contains(mrec.Body.String(), `pgsimd_trajectory_disconnects_total{system="case9"} 1`) {
		t.Fatal("disconnect not counted in /metrics")
	}
	code, lines := postTrajectory(t, s.Handler(), `{"system":"case9","steps":2,"mode":"predict","seed":1}`)
	if code != http.StatusOK {
		t.Fatalf("follow-up stream = %d (%v), want 200", code, lines)
	}
	if _, sum := decodeSteps(t, lines); !sum.Done {
		t.Fatal("follow-up stream did not complete")
	}
}
