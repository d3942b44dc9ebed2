package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRequestFront pins the request front the three POST endpoints
// share — one decode, one system lookup, one error writer — from the
// outside: each way a request can fail before any endpoint-specific
// validation answers the same status with the same error JSON shape on
// every endpoint, and is counted in pgsimd_http_requests_total under the
// endpoint that was called, not under a neighbour's label.
func TestRequestFront(t *testing.T) {
	sys, _ := loadFixture(t)
	s := newTestServer(t, Config{MaxBodyBytes: 256}, sys, nil)
	h := s.Handler()

	big := `{"system":"case9","pad":"` + strings.Repeat("x", 512) + `"}`
	failures := []struct {
		name, body string
		code       int
		want       string // substring of the error text
	}{
		{"malformed JSON", `{"system":`, http.StatusBadRequest, "bad request body"},
		{"unknown field", `{"system":"case9","bogus":1}`, http.StatusBadRequest, "bogus"},
		{"oversized body", big, http.StatusBadRequest, "request body too large"},
		{"missing system", `{"steps":2}`, http.StatusBadRequest, `missing required field "system"`},
		{"unknown system", `{"system":"case999","steps":2}`, http.StatusNotFound, "unknown system"},
	}
	// steps is a trajectory field; the other two endpoints must get past
	// the decoder with the same bodies, so they drop it.
	bodyFor := func(endpoint, body string) string {
		if endpoint != "/v1/trajectory" {
			body = strings.NewReplacer(`,"steps":2`, ``, `"steps":2`, ``).Replace(body)
		}
		return body
	}
	for _, endpoint := range []string{"/v1/solve", "/v1/screen", "/v1/trajectory"} {
		for _, tc := range failures {
			t.Run(endpoint+"/"+tc.name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, endpoint, strings.NewReader(bodyFor(endpoint, tc.body))))
				if rec.Code != tc.code {
					t.Fatalf("status = %d (%s), want %d", rec.Code, rec.Body, tc.code)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("Content-Type = %q", ct)
				}
				var shape map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &shape); err != nil {
					t.Fatalf("error body %s not JSON: %v", rec.Body, err)
				}
				msg, _ := shape["error"].(string)
				if len(shape) != 1 || !strings.Contains(msg, tc.want) {
					t.Fatalf("error body = %s, want exactly {\"error\": …%s…}", rec.Body, tc.want)
				}
			})
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, endpoint := range []string{"/v1/solve", "/v1/screen", "/v1/trajectory"} {
		for code, n := range map[int]int{http.StatusBadRequest: 4, http.StatusNotFound: 1} {
			line := fmt.Sprintf("pgsimd_http_requests_total{endpoint=%q,code=\"%d\"} %d\n", endpoint, code, n)
			if !strings.Contains(rec.Body.String(), line) {
				t.Errorf("/metrics lacks %q", line)
			}
		}
	}
}
