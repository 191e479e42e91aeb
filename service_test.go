package gdp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// netListen opens a loopback listener on an ephemeral port.
func netListen(t *testing.T) (net.Listener, error) {
	t.Helper()
	return net.Listen("tcp", "127.0.0.1:0")
}

func testServer(t *testing.T, opts ...ServerOption) *Server {
	t.Helper()
	engine, err := NewEngine(WithScale(StudyScale{
		WorkloadsPerCell:    1,
		InstructionsPerCore: 3000,
		IntervalCycles:      2000,
		Seed:                1,
		CoreCounts:          []int{2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(engine, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func postJSON(t *testing.T, srv *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TestEstimateEndpointHappyPath is the acceptance check: a 4-core H-mix
// request returns a JSON estimate.
func TestEstimateEndpointHappyPath(t *testing.T) {
	srv := testServer(t)
	rec := postJSON(t, srv, "/v1/estimate", `{"cores": 4, "mix": "H"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var resp EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON response: %v", err)
	}
	if resp.APIVersion != apiVersion {
		t.Errorf("api_version = %q", resp.APIVersion)
	}
	if resp.Technique != "GDP-O" {
		t.Errorf("default technique = %q, want GDP-O", resp.Technique)
	}
	if len(resp.Cores) != 4 {
		t.Fatalf("cores = %d, want 4", len(resp.Cores))
	}
	usable := 0
	for _, c := range resp.Cores {
		if c.SharedCPI <= 0 {
			t.Errorf("core %d has no shared CPI", c.Core)
		}
		if c.EstimatedPrivateCPI > 0 && c.Intervals > 0 {
			usable++
		}
	}
	if usable == 0 {
		t.Error("no core produced a usable private-performance estimate")
	}
}

func TestEstimateEndpointExplicitBenchmarks(t *testing.T) {
	srv := testServer(t)
	rec := postJSON(t, srv, "/v1/estimate",
		`{"benchmarks": ["omnetpp", "lbm"], "technique": "GDP", "instructions_per_core": 2500, "interval_cycles": 2000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var resp EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cores) != 2 || resp.Cores[0].Benchmark != "omnetpp" {
		t.Errorf("unexpected cores: %+v", resp.Cores)
	}
}

func TestEstimateEndpointRejectsMalformedJSON(t *testing.T) {
	srv := testServer(t)
	for _, body := range []string{"{not json", `"a string"`, `{"cores": "four"}`} {
		rec := postJSON(t, srv, "/v1/estimate", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "error") {
			t.Errorf("body %q: no JSON error payload: %s", body, rec.Body.String())
		}
	}
}

func TestEstimateEndpointRejectsBadRequests(t *testing.T) {
	srv := testServer(t)
	cases := []string{
		`{"api_version": "v2"}`,
		`{"mix": "nope"}`,
		`{"benchmarks": ["not-a-benchmark"]}`,
		`{"technique": "MAGIC"}`,
		`{"cores": 9999}`,
		`{"prb_entries": 4097, "instructions_per_core": 1000, "interval_cycles": 800}`,
	}
	for _, body := range cases {
		rec := postJSON(t, srv, "/v1/estimate", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400 (%s)", body, rec.Code, rec.Body.String())
		}
	}
}

func TestEstimateEndpointMethodNotAllowed(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/estimate", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", rec.Code)
	}
}

// TestEstimateEndpointClientGone cancels the request context mid-simulation:
// the handler must abort the run and record the client-closed status instead
// of hanging or panicking.
func TestEstimateEndpointClientGone(t *testing.T) {
	srv := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate",
		strings.NewReader(`{"cores": 2, "instructions_per_core": 50000}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("client-gone response carries a body: %s", rec.Body.String())
	}
}

func TestHealthzEndpoint(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %+v", health)
	}
}

func TestSweepEndpoint(t *testing.T) {
	srv := testServer(t)
	rec := postJSON(t, srv, "/v1/sweep",
		`{"core_counts": [2], "mixes": ["H"], "prb_sizes": [32], "techniques": ["GDP-O"],
		  "workloads": 1, "instructions_per_core": 2000, "interval_cycles": 2000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cells != 1 || len(resp.Rows) != 1 || resp.Rows[0].Name != "GDP-O" {
		t.Errorf("unexpected sweep response: %+v", resp)
	}
}

// TestSweepEndpointCheckpointKnob: warm-up sharing is gone, and an old
// client's "checkpoint" field, valid or not, is ignored: the response matches
// the one without it exactly.
func TestSweepEndpointCheckpointKnob(t *testing.T) {
	srv := testServer(t)
	body := `{"core_counts": [2], "mixes": ["H"], "prb_sizes": [16, 32], "techniques": ["GDP-O"],
		  "workloads": 1, "instructions_per_core": 4000, "interval_cycles": 1000%s}`
	cold := postJSON(t, srv, "/v1/sweep", fmt.Sprintf(body, ""))
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status = %d, body = %s", cold.Code, cold.Body.String())
	}
	for _, knob := range []string{`{"warmup_intervals": 2}`, `{"warmup_intervals": 0}`} {
		old := postJSON(t, srv, "/v1/sweep", fmt.Sprintf(body, `, "checkpoint": `+knob))
		if old.Code != http.StatusOK {
			t.Fatalf("checkpoint %s: status = %d, body = %s", knob, old.Code, old.Body.String())
		}
		if cold.Body.String() != old.Body.String() {
			t.Errorf("checkpoint %s: sweep response diverges from the one without it", knob)
		}
	}
}

func TestSweepEndpointRejectsInvalidNamesAndSizes(t *testing.T) {
	srv := testServer(t)
	cases := []string{
		`{"techniques": ["GPD-O"]}`,
		`{"policies": ["MAGIC"]}`,
		`{"workloads": 100000}`,
		`{"instructions_per_core": 999999999999}`,
		`{"interval_cycles": 3}`,
		`{"prb_sizes": [0]}`,
		`{"prb_sizes": [4097], "core_counts": [2], "mixes": ["H"], "workloads": 1, "instructions_per_core": 1000, "interval_cycles": 800}`,
	}
	for _, body := range cases {
		rec := postJSON(t, srv, "/v1/sweep", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400 (%s)", body, rec.Code, rec.Body.String())
		}
	}
}

// TestSweepValidateNamesTheBadValue: every grid value the sweep check rejects
// comes back as a request error (HTTP 400) that names the value, an unknown
// scenario stays reachable as an *UnknownScenarioError, and the policies of
// a scenario-only grid, which no cell carries, are still checked.
func TestSweepValidateNamesTheBadValue(t *testing.T) {
	cases := []struct {
		req SweepRequest
		bad string
	}{
		{SweepRequest{CoreCounts: []int{2, 0}}, "0"},
		{SweepRequest{CoreCounts: []int{maxServiceCores + 1}}, fmt.Sprint(maxServiceCores + 1)},
		{SweepRequest{PRBSizes: []int{-3}}, "-3"},
		{SweepRequest{PRBSizes: []int{maxServicePRBEntries + 1}}, fmt.Sprint(maxServicePRBEntries + 1)},
		{SweepRequest{Techniques: []string{"GDP", "GPD-O"}}, "GPD-O"},
		{SweepRequest{Policies: []string{"MAGIC"}}, "MAGIC"},
		{SweepRequest{Scenarios: []string{"bursty"}, Policies: []string{"MAGIC"}}, "MAGIC"},
		{SweepRequest{Scenarios: []string{"bursty", "bogus"}}, "bogus"},
	}
	for _, tc := range cases {
		_, err := tc.req.validate()
		if err == nil {
			t.Errorf("%+v: accepted, want a rejection naming %q", tc.req, tc.bad)
			continue
		}
		requireRequestError(t, err)
		if !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("%+v: error %q does not name %q", tc.req, err, tc.bad)
		}
	}
	_, err := (&SweepRequest{Scenarios: []string{"bogus"}}).validate()
	var unknown *UnknownScenarioError
	if !errors.As(err, &unknown) || unknown.Name != "bogus" {
		t.Errorf("unknown sweep scenario error %v is not an *UnknownScenarioError for \"bogus\"", err)
	}
}

func TestSweepEndpointRejectsOversizedGrid(t *testing.T) {
	srv := testServer(t)
	prbs := make([]string, 600)
	for i := range prbs {
		prbs[i] = "8"
	}
	rec := postJSON(t, srv, "/v1/sweep", `{"core_counts": [2], "mixes": ["H"], "prb_sizes": [`+strings.Join(prbs, ",")+`]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
}

// TestConcurrentRequestLimit pins what the limiter bounds: concurrent
// simulations, not requests. With the only slot taken, a new simulation is
// shed with 503 and Retry-After, whether the slot is held directly or by a
// running simulation; requests identical to that running simulation join it
// instead and all get its response.
func TestConcurrentRequestLimit(t *testing.T) {
	t.Run("slot held", func(t *testing.T) {
		srv := testServer(t, WithMaxConcurrent(1))
		srv.sem <- struct{}{} // occupy the only slot
		rec := postJSON(t, srv, "/v1/estimate", `{"cores": 2}`)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503 (%s)", rec.Code, rec.Body.String())
		}
		<-srv.sem
		rec = postJSON(t, srv, "/v1/estimate", `{"cores": 2, "instructions_per_core": 2000}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("after releasing the slot: status = %d (%s)", rec.Code, rec.Body.String())
		}
	})
	t.Run("slot held by a simulation", func(t *testing.T) {
		srv := testServer(t, WithMaxConcurrent(1))
		entered, release := gateEstimate(srv)
		const n = 4
		recs := make([]*httptest.ResponseRecorder, n)
		var wg sync.WaitGroup
		post := func(i int, ctx context.Context) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				recs[i] = postEstimate(srv, ctx, estimateBody)
			}()
		}
		post(0, context.Background())
		<-entered // the simulation holds the only slot
		joined := make(chan struct{})
		for i := 1; i < n; i++ {
			post(i, joiningCtx(joined))
		}
		for i := 1; i < n; i++ {
			<-joined
		}

		shed := metricValue(t, scrape(t, srv), "gdpsim_http_shed_total")
		rec := postJSON(t, srv, "/v1/estimate", distinctBody)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Errorf("distinct request: status = %d, Retry-After = %q; want 503 with Retry-After (%s)",
				rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
		}
		if got := metricValue(t, scrape(t, srv), "gdpsim_http_shed_total"); got != shed+1 {
			t.Errorf("shed total = %v, want %v", got, shed+1)
		}

		close(release)
		wg.Wait()
		for i, r := range recs {
			if r.Code != http.StatusOK {
				t.Fatalf("identical request %d: status = %d (%s)", i, r.Code, r.Body.String())
			}
			if r.Body.String() != recs[0].Body.String() {
				t.Errorf("identical request %d's response differs from the first:\n%s\nvs\n%s", i, r.Body.String(), recs[0].Body.String())
			}
		}
		m := scrape(t, srv)
		if got := metricValue(t, m, "gdpsim_sim_runs_total"); got != 1 {
			t.Errorf("sim runs = %v, want 1", got)
		}
		if got := metricValue(t, m, "gdpsim_coalesce_joined_total"); got != n-1 {
			t.Errorf("coalesce joined = %v, want %d", got, n-1)
		}
	})
}

// TestServerGracefulShutdown starts a real http.Server on a loopback
// listener, issues a request, then checks Shutdown completes and the
// listener stops accepting work — the contract `gdpsim serve` relies on for
// SIGTERM handling.
func TestServerGracefulShutdown(t *testing.T) {
	handler := testServer(t)
	httpSrv := &http.Server{Handler: handler}
	ln, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	wg.Wait()
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}
