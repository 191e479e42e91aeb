package gdp

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"repro/internal/runner"
)

// coalesceBody is a small identical estimate request used by every coalescer
// test.
const coalesceBody = `{"cores": 2, "mix": "H", "instructions_per_core": 2000, "interval_cycles": 2000}`

// TestCoalesceIdenticalRequestsOneSimulation is the coalescer acceptance
// check: n identical estimates that arrive while the first one is still
// simulating share its single simulation, and every caller receives the same
// response, while a request that differs (here by seed) runs its own
// simulation beside them. The engine call is gated, so the group stays open
// until the coalescer counts all n waiters: no sleep, no timer.
func TestCoalesceIdenticalRequestsOneSimulation(t *testing.T) {
	srv := testServer(t)
	const n = 4
	co := srv.coalesce
	entered := make(chan struct{}, n+1)
	release := make(chan struct{})
	estimate := co.estimate
	co.estimate = func(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error) {
		entered <- struct{}{}
		<-release
		return estimate(ctx, req)
	}
	var req EstimateRequest
	if err := json.Unmarshal([]byte(coalesceBody), &req); err != nil {
		t.Fatal(err)
	}
	key, err := runner.SpecKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	waiters := func() int {
		co.mu.Lock()
		defer co.mu.Unlock()
		if g := co.groups[key]; g != nil {
			return g.waiters
		}
		return 0
	}

	const distinct = `{"cores": 2, "mix": "H", "seed": 9, "instructions_per_core": 2000, "interval_cycles": 2000}`
	bodies := make([]string, n)
	var wg sync.WaitGroup
	finished := make(chan struct{}, n+1)
	post := func(body string, out *string) {
		defer wg.Done()
		defer func() { finished <- struct{}{} }()
		rec := postJSON(t, srv, "/v1/estimate", body)
		if rec.Code != http.StatusOK {
			t.Errorf("status = %d, body = %s", rec.Code, rec.Body.String())
			return
		}
		if out != nil {
			*out = rec.Body.String()
		}
	}
	wg.Add(n + 1)
	for i := range bodies {
		go post(coalesceBody, &bodies[i])
	}
	go post(distinct, nil)
	// Both leaders reach the engine and hold there...
	<-entered
	<-entered
	// ...while the identical requests pile onto the one open group. Nothing
	// may start a third simulation or return while the group is held.
	for waiters() < n {
		if len(entered) > 0 || len(finished) > 0 {
			close(release)
			wg.Wait()
			t.Fatal("an identical request did not join the open group")
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs from the leader's:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	m := scrape(t, srv)
	if got := metricValue(t, m, "gdpsim_sim_runs_total"); got != 2 {
		t.Errorf("sim runs = %v, want 2 (one per distinct request)", got)
	}
	if got := metricValue(t, m, "gdpsim_coalesce_joined_total"); got != n-1 {
		t.Errorf("coalesce joined = %v, want %d", got, n-1)
	}
	if got := metricValue(t, m, "gdpsim_coalesce_batches_total"); got != 2 {
		t.Errorf("coalesce batches = %v, want 2", got)
	}
}

// TestCoalesceSequentialRequestsRunSeparately checks group retirement: a
// second identical request arriving after the first completed gets a fresh
// simulation, not a stale shared group.
func TestCoalesceSequentialRequestsRunSeparately(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 2; i++ {
		if rec := postJSON(t, srv, "/v1/estimate", coalesceBody); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d, body = %s", i, rec.Code, rec.Body.String())
		}
	}
	m := scrape(t, srv)
	if got := metricValue(t, m, "gdpsim_sim_runs_total"); got != 2 {
		t.Errorf("sim runs = %v, want 2 (sequential requests)", got)
	}
}

// TestNewServerRejectsNilEngine: a Server needs an Engine built by NewEngine;
// there is no process-wide fallback.
func TestNewServerRejectsNilEngine(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("NewServer(nil) accepted")
	}
}
