package gdp

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// scrape GETs /metrics and returns the Prometheus text body.
func scrape(t *testing.T, srv *Server) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d, body = %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); got != telemetry.ContentType {
		t.Fatalf("metrics Content-Type = %q, want %q", got, telemetry.ContentType)
	}
	return rec.Body.String()
}

// metricValue finds the sample of family name whose label set contains every
// given `key="value"` fragment and returns its value (0 when absent).
func metricValue(t *testing.T, body, name string, labels ...string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // a longer family name sharing the prefix
		}
		matched := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				matched = false
				break
			}
		}
		if !matched {
			continue
		}
		fields := strings.Fields(rest)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v
	}
	return 0
}

// TestMetricsEndToEnd drives the instrumented request path: an estimate and a
// repeated sweep through the real handlers, then asserts the HTTP, runner,
// simulation and cache series all moved on /metrics.
func TestMetricsEndToEnd(t *testing.T) {
	srv := testServer(t)

	if rec := postJSON(t, srv, "/v1/estimate", `{"cores": 2, "mix": "H"}`); rec.Code != http.StatusOK {
		t.Fatalf("estimate status = %d, body = %s", rec.Code, rec.Body.String())
	}
	sweepBody := `{"core_counts":[2],"mixes":["H"],"prb_sizes":[16],"techniques":["GDP-O"],
		"workloads":1,"instructions_per_core":2000,"interval_cycles":2000}`
	if rec := postJSON(t, srv, "/v1/sweep", sweepBody); rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d, body = %s", rec.Code, rec.Body.String())
	}
	first := scrape(t, srv)

	if got := metricValue(t, first, "gdpsim_http_requests_total", `endpoint="/v1/estimate"`, `code="200"`); got != 1 {
		t.Errorf("estimate request count = %v, want 1", got)
	}
	if got := metricValue(t, first, "gdpsim_http_requests_total", `endpoint="/v1/sweep"`, `code="200"`); got != 1 {
		t.Errorf("sweep request count = %v, want 1", got)
	}
	if got := metricValue(t, first, "gdpsim_http_request_seconds_count", `endpoint="/v1/estimate"`); got != 1 {
		t.Errorf("estimate latency observations = %v, want 1", got)
	}
	if got := metricValue(t, first, "gdpsim_sim_runs_total"); got < 1 {
		t.Errorf("sim runs = %v, want >= 1", got)
	}
	if got := metricValue(t, first, "gdpsim_sim_intervals_total"); got < 1 {
		t.Errorf("sim intervals = %v, want >= 1", got)
	}
	if got := metricValue(t, first, "gdpsim_runner_jobs_total", `outcome="ok"`); got < 1 {
		t.Errorf("runner ok jobs = %v, want >= 1", got)
	}
	if got := metricValue(t, first, "gdpsim_runner_queue_depth_jobs"); got != 0 {
		t.Errorf("queue depth after drain = %v, want 0", got)
	}
	firstHits := metricValue(t, first, "gdpsim_cache_hits_total", `layer="memory"`)

	// The identical sweep again: every cell is memoized, so the memory-hit
	// series must rise while the request series counts the second call.
	if rec := postJSON(t, srv, "/v1/sweep", sweepBody); rec.Code != http.StatusOK {
		t.Fatalf("repeat sweep status = %d, body = %s", rec.Code, rec.Body.String())
	}
	second := scrape(t, srv)
	if got := metricValue(t, second, "gdpsim_http_requests_total", `endpoint="/v1/sweep"`, `code="200"`); got != 2 {
		t.Errorf("sweep request count after repeat = %v, want 2", got)
	}
	secondHits := metricValue(t, second, "gdpsim_cache_hits_total", `layer="memory"`)
	if secondHits <= firstHits {
		t.Errorf("memory cache hits did not rise on the repeated sweep: %v -> %v", firstHits, secondHits)
	}
	if got := metricValue(t, second, "gdpsim_http_requests_total", `endpoint="/metrics"`, `code="200"`); got != 1 {
		t.Errorf("metrics self-count = %v, want 1 (the first scrape)", got)
	}
}

func TestMetricsEndpointGETOnly(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/metrics", strings.NewReader("{}"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status = %d, want 405", rec.Code)
	}
	if got := rec.Header().Get("Allow"); got != http.MethodGet {
		t.Errorf("Allow = %q, want GET", got)
	}
}

// TestHealthzReportsBuildAndCacheBreakdown pins the healthz payload: build
// identity fields plus the per-layer cache statistics next to the legacy flat
// counters.
func TestHealthzReportsBuildAndCacheBreakdown(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("healthz Content-Type = %q, want application/json", got)
	}
	var payload struct {
		Status      string      `json:"status"`
		GitRevision *string     `json:"git_revision"`
		Cache       *CacheStats `json:"cache"`
		CacheHits   *int64      `json:"cache_hits"`
		CacheMisses *int64      `json:"cache_misses"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("healthz body not JSON: %v", err)
	}
	if payload.Status != "ok" {
		t.Errorf("status = %q", payload.Status)
	}
	if payload.GitRevision == nil {
		t.Error("git_revision field missing")
	} else if !regexp.MustCompile(`^([0-9a-f]+(\+dirty)?)?$`).MatchString(*payload.GitRevision) {
		t.Errorf("git_revision = %q, want empty or a hex revision with optional +dirty", *payload.GitRevision)
	}
	if payload.Cache == nil {
		t.Error("cache breakdown missing")
	}
	if payload.CacheHits == nil || payload.CacheMisses == nil {
		t.Error("legacy cache_hits/cache_misses fields missing")
	}
}

// TestAccessLogCarriesSpecKey pins the structured access log: one record per
// request with method, endpoint, status, latency and the request's cache
// spec-key prefix.
func TestAccessLogCarriesSpecKey(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	srv := testServer(t, WithLogger(logger))
	if rec := postJSON(t, srv, "/v1/estimate", `{"cores": 2, "mix": "H"}`); rec.Code != http.StatusOK {
		t.Fatalf("estimate status = %d", rec.Code)
	}
	out := buf.String()
	for _, want := range []string{"msg=request", "endpoint=/v1/estimate", "status=200", "spec_key="} {
		if !strings.Contains(out, want) {
			t.Errorf("access log missing %q:\n%s", want, out)
		}
	}
}
