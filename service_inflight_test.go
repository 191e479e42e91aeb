package gdp

import (
	"context"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// estimateBody is a small identical estimate request used by every in-flight
// sharing test; distinctBody differs from it only by seed.
const (
	estimateBody = `{"cores": 2, "mix": "H", "instructions_per_core": 2000, "interval_cycles": 2000}`
	distinctBody = `{"cores": 2, "mix": "H", "seed": 9, "instructions_per_core": 2000, "interval_cycles": 2000}`
)

// gateEstimate makes srv's simulations report on entered and then hold until
// release closes or their request's context ends, so a test can keep a
// simulation in flight without a timer. Set it before the server serves.
func gateEstimate(srv *Server) (entered, release chan struct{}) {
	// Room for every simulation a test starts, so a report never blocks and
	// a test can count reports it did not expect.
	entered = make(chan struct{}, 8)
	release = make(chan struct{})
	estimate := srv.estimate
	srv.estimate = func(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return estimate(ctx, req)
	}
	return entered, release
}

// joinSignalCtx is a request context that reports the first call to Done on
// joined. A request that finds an identical estimate in flight blocks on its
// context's Done until that estimate finishes, and nothing on the request
// path asks for Done before then, so the report means the request has
// joined.
type joinSignalCtx struct {
	context.Context
	once   sync.Once
	joined chan<- struct{}
}

func (c *joinSignalCtx) Done() <-chan struct{} {
	c.once.Do(func() { c.joined <- struct{}{} })
	return c.Context.Done()
}

// joiningCtx returns a live context that reports on joined once its request
// waits on another's simulation.
func joiningCtx(joined chan<- struct{}) context.Context {
	return &joinSignalCtx{Context: context.Background(), joined: joined}
}

// postEstimate is postJSON to /v1/estimate under the given request context.
func postEstimate(srv *Server, ctx context.Context, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TestCoalesceIdenticalRequestsOneSimulation is the sharing acceptance check:
// n identical estimates that arrive while the first one is still simulating
// share its single simulation, and every caller receives the same response,
// while a request that differs (here by seed) runs its own simulation beside
// them. The simulations are gated, so they stay in flight until all n−1
// identical requests have joined: no sleep, no timer.
func TestCoalesceIdenticalRequestsOneSimulation(t *testing.T) {
	srv := testServer(t)
	const n = 4
	entered, release := gateEstimate(srv)
	bodies := make([]string, n)
	var wg sync.WaitGroup
	post := func(ctx context.Context, body string, out *string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postEstimate(srv, ctx, body)
			if rec.Code != http.StatusOK {
				t.Errorf("status = %d, body = %s", rec.Code, rec.Body.String())
				return
			}
			if out != nil {
				*out = rec.Body.String()
			}
		}()
	}
	post(context.Background(), estimateBody, &bodies[0])
	post(context.Background(), distinctBody, nil)
	// Both simulations reach the engine and hold there...
	<-entered
	<-entered
	// ...while the identical requests join the first one.
	joined := make(chan struct{})
	for i := 1; i < n; i++ {
		post(joiningCtx(joined), estimateBody, &bodies[i])
	}
	for i := 1; i < n; i++ {
		<-joined
	}
	close(release)
	wg.Wait()
	if len(entered) != 0 {
		t.Errorf("%d joined requests ran a simulation of their own", len(entered))
	}

	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("response %d differs from the first:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	m := scrape(t, srv)
	if got := metricValue(t, m, "gdpsim_sim_runs_total"); got != 2 {
		t.Errorf("sim runs = %v, want 2 (one per distinct request)", got)
	}
	if got := metricValue(t, m, "gdpsim_coalesce_joined_total"); got != n-1 {
		t.Errorf("coalesce joined = %v, want %d", got, n-1)
	}
}

// TestCoalesceSequentialRequestsRunSeparately checks that nothing outlives a
// simulation: a second identical request arriving after the first completed
// gets a fresh simulation, not a stale shared one.
func TestCoalesceSequentialRequestsRunSeparately(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 2; i++ {
		if rec := postJSON(t, srv, "/v1/estimate", estimateBody); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d, body = %s", i, rec.Code, rec.Body.String())
		}
	}
	m := scrape(t, srv)
	if got := metricValue(t, m, "gdpsim_sim_runs_total"); got != 2 {
		t.Errorf("sim runs = %v, want 2 (sequential requests)", got)
	}
}

// TestEstimateOwnerDisconnectReruns: when the client of the simulating
// request disconnects, that request ends with 499 and its run is aborted,
// but an identical request waiting on it does not inherit the cancellation:
// it reruns the simulation itself and answers with the bytes an undisturbed
// request gets.
func TestEstimateOwnerDisconnectReruns(t *testing.T) {
	srv := testServer(t)
	entered, release := gateEstimate(srv)
	ownerCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	owner := make(chan *httptest.ResponseRecorder, 1)
	go func() { owner <- postEstimate(srv, ownerCtx, estimateBody) }()
	<-entered
	joined := make(chan struct{})
	joiner := make(chan *httptest.ResponseRecorder, 1)
	go func() { joiner <- postEstimate(srv, joiningCtx(joined), estimateBody) }()
	<-joined

	cancel()
	if rec := <-owner; rec.Code != statusClientClosedRequest {
		t.Fatalf("owner status = %d, want %d (%s)", rec.Code, statusClientClosedRequest, rec.Body.String())
	}
	<-entered // the joiner's own simulation
	close(release)
	got := <-joiner
	if got.Code != http.StatusOK {
		t.Fatalf("joiner status = %d, want 200 (%s)", got.Code, got.Body.String())
	}
	want := postJSON(t, srv, "/v1/estimate", estimateBody)
	if want.Code != http.StatusOK {
		t.Fatalf("undisturbed status = %d (%s)", want.Code, want.Body.String())
	}
	if got.Body.String() != want.Body.String() {
		t.Errorf("joiner's response differs from an undisturbed one:\n%s\nvs\n%s", got.Body.String(), want.Body.String())
	}
}

// takeSlotOnRetryCtx is a joining context (see joinSignalCtx) that fills
// sem's free slot the first time its request asks for Err. A joiner asks
// once, when the simulation it waited on died of its owner's cancellation,
// right before it reruns the simulation; the owner has freed its slot by
// then. took reports whether the slot was free.
type takeSlotOnRetryCtx struct {
	*joinSignalCtx
	sem  chan struct{}
	once sync.Once
	took atomic.Bool
}

func (c *takeSlotOnRetryCtx) Err() error {
	c.once.Do(func() {
		select {
		case c.sem <- struct{}{}:
			c.took.Store(true)
		default:
		}
	})
	return c.joinSignalCtx.Err()
}

// TestEstimateRerunAfterDisconnectCanBeShed pins the cost of the rerun in
// TestEstimateOwnerDisconnectReruns: the rerun needs a concurrency slot of
// its own, so when every slot is taken by then, the request that waited gets
// 503 with Retry-After instead of a response.
func TestEstimateRerunAfterDisconnectCanBeShed(t *testing.T) {
	srv := testServer(t, WithMaxConcurrent(1))
	entered, release := gateEstimate(srv)
	ownerCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	owner := make(chan *httptest.ResponseRecorder, 1)
	go func() { owner <- postEstimate(srv, ownerCtx, estimateBody) }()
	<-entered
	joined := make(chan struct{})
	ctx := &takeSlotOnRetryCtx{
		joinSignalCtx: &joinSignalCtx{Context: context.Background(), joined: joined},
		sem:           srv.sem,
	}
	joiner := make(chan *httptest.ResponseRecorder, 1)
	go func() { joiner <- postEstimate(srv, ctx, estimateBody) }()
	<-joined

	cancel()
	if rec := <-owner; rec.Code != statusClientClosedRequest {
		t.Fatalf("owner status = %d, want %d (%s)", rec.Code, statusClientClosedRequest, rec.Body.String())
	}
	close(release) // a rerun that got past the limiter would finish, not hang
	rec := <-joiner
	if !ctx.took.Load() {
		t.Fatal("the only slot was still held when the joiner went to rerun")
	}
	<-srv.sem
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("joiner: status = %d, Retry-After = %q; want 503 with Retry-After (%s)",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	if len(entered) != 0 {
		t.Error("the shed rerun reached the engine")
	}
}

// lockedBuffer is a strings.Builder safe for the server's goroutines to write
// and the test to read.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestEstimatePanicStaysInItsHandler: a simulation that panics unwinds in the
// handler goroutine of the request that ran it, where net/http recovers it
// and drops that connection; the server keeps serving. An identical request
// waiting on that simulation gets a 500, not a hang; its body does not carry
// the panic, which goes to the server log instead. The request bookkeeping
// survives the panic: the in-flight gauge returns to 0 and the panicking
// request counts as a 500. Requests marked X-Join wait on the panicking
// simulation, so the test knows when they have joined.
func TestEstimatePanicStaysInItsHandler(t *testing.T) {
	var srvLog lockedBuffer
	srv := testServer(t, WithLogger(slog.New(slog.NewTextHandler(&srvLog, nil))))
	entered := make(chan struct{})
	release := make(chan struct{})
	estimate := srv.estimate
	var first atomic.Bool
	srv.estimate = func(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error) {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
			panic("injected estimate panic")
		}
		return estimate(ctx, req)
	}
	joined := make(chan struct{})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Join") != "" {
			r = r.WithContext(&joinSignalCtx{Context: r.Context(), joined: joined})
		}
		srv.ServeHTTP(w, r)
	}))
	var errLog lockedBuffer
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	defer ts.Close()

	type result struct {
		code int
		body string
		err  error
	}
	post := func(join bool) result {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/estimate", strings.NewReader(estimateBody))
		if err != nil {
			return result{err: err}
		}
		if join {
			req.Header.Set("X-Join", "1")
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return result{err: err}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return result{code: resp.StatusCode, body: string(body), err: err}
	}
	owner := make(chan result, 1)
	go func() { owner <- post(false) }()
	<-entered
	joiner := make(chan result, 1)
	go func() { joiner <- post(true) }()
	<-joined
	close(release)

	if r := <-owner; r.err == nil {
		t.Errorf("panicking request answered %d (%s), want a dropped connection", r.code, r.body)
	}
	if r := <-joiner; r.err != nil || r.code != http.StatusInternalServerError || strings.Contains(r.body, "panic") {
		t.Errorf("joined request: status %d, body %q, err %v; want a 500 that does not expose the panic", r.code, r.body, r.err)
	}
	if !strings.Contains(srvLog.String(), "injected estimate panic") {
		t.Errorf("the joined request's 500 did not log the panic; server log:\n%s", srvLog.String())
	}
	if !strings.Contains(errLog.String(), "injected estimate panic") {
		t.Errorf("net/http did not recover the panic; server log:\n%s", errLog.String())
	}
	if r := post(false); r.err != nil || r.code != http.StatusOK {
		t.Fatalf("estimate after the panic: status %d, err %v (%s)", r.code, r.err, r.body)
	}
	m := scrape(t, srv)
	if got := metricValue(t, m, "gdpsim_http_in_flight_requests", `endpoint="/v1/estimate"`); got != 0 {
		t.Errorf("estimate in-flight gauge = %v after the panic, want 0", got)
	}
	if got := metricValue(t, m, "gdpsim_http_requests_total", `endpoint="/v1/estimate"`, `code="500"`); got != 2 {
		t.Errorf("estimate 500s = %v, want 2 (the panicking request and its joiner)", got)
	}
}

// TestNewServerRejectsNilEngine: a Server needs an Engine built by NewEngine;
// there is no process-wide fallback.
func TestNewServerRejectsNilEngine(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("NewServer(nil) accepted")
	}
}
