package gdp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// dispatchTestScale is the tiny scale every fleet test runs at: small enough
// that a full grid is seconds, deterministic across engines.
func dispatchTestScale() StudyScale {
	return StudyScale{
		WorkloadsPerCell:    1,
		InstructionsPerCore: 3000,
		IntervalCycles:      2000,
		Seed:                1,
		CoreCounts:          []int{2},
	}
}

// newWorker boots one real worker: a fresh Engine (own cache) behind a real
// HTTP listener, exactly what `gdpsim serve` runs.
func newWorker(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	engine, err := NewEngine(WithScale(dispatchTestScale()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(engine)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// dispatchTestSweep is the shared grid: 6 accuracy cells (3 mixes × 2 PRB
// sizes) on 2 cores, one technique to keep the wall-clock down.
func dispatchTestSweep() SweepOptions {
	return SweepOptions{
		CoreCounts:          []int{2},
		Mixes:               []workload.MixKind{workload.MixH, workload.MixM, workload.MixL},
		PRBSizes:            []int{16, 32},
		Techniques:          []string{"GDP"},
		Workloads:           1,
		InstructionsPerCore: 3000,
		IntervalCycles:      2000,
		Seed:                1,
	}
}

// rowsJSON canonicalizes rows for byte-identity comparison.
func rowsJSON(t *testing.T, rows []SweepRow) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// localSweepRows runs the reference single-machine sweep on a fresh engine.
func localSweepRows(t *testing.T) string {
	t.Helper()
	engine, err := NewEngine(WithScale(dispatchTestScale()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Sweep(t.Context(), dispatchTestSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("local sweep produced no rows")
	}
	return rowsJSON(t, res.Rows)
}

// TestSweepWorkersMatchesLocal is the tentpole acceptance check: the same grid
// sharded across two real workers produces byte-identical rows to a
// single-machine sweep.
func TestSweepWorkersMatchesLocal(t *testing.T) {
	want := localSweepRows(t)

	w1, _ := newWorker(t)
	w2, _ := newWorker(t)
	engine, err := NewEngine(WithScale(dispatchTestScale()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SweepWorkers(t.Context(), dispatchTestSweep(), []string{w1.URL, w2.URL})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsJSON(t, res.Rows); got != want {
		t.Errorf("distributed rows differ from local:\n got %s\nwant %s", got, want)
	}
	if res.Cells != 6 {
		t.Errorf("cells = %d, want 6", res.Cells)
	}
}

// killableWorker proxies a real worker and then "dies" mid-grid: the first
// batch's result stream is cut after one line and every later request is
// refused, so the dispatcher must finish the grid via retry/steal on the
// survivors.
type killableWorker struct {
	srv    *Server
	killed atomic.Bool
	posts  atomic.Int64
}

func (k *killableWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.killed.Load() {
		http.Error(w, "worker down", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Path == "/v1/cells" && k.posts.Add(1) == 1 {
		w = &cutWriter{ResponseWriter: w, allow: 1, onCut: func() { k.killed.Store(true) }}
	}
	k.srv.ServeHTTP(w, r)
}

// cutWriter lets `allow` NDJSON lines through, then aborts the connection.
type cutWriter struct {
	http.ResponseWriter
	allow int
	seen  int
	onCut func()
}

func (c *cutWriter) Write(p []byte) (int, error) {
	if c.seen >= c.allow {
		c.onCut()
		panic(http.ErrAbortHandler)
	}
	c.seen += bytes.Count(p, []byte("\n"))
	return c.ResponseWriter.Write(p)
}

func (c *cutWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestSweepWorkersSurvivesWorkerDeath kills one of two workers mid-grid and
// requires the sweep to complete with rows byte-identical to local.
func TestSweepWorkersSurvivesWorkerDeath(t *testing.T) {
	want := localSweepRows(t)

	_, victim := newWorker(t)
	kw := &killableWorker{srv: victim}
	dying := httptest.NewServer(kw)
	t.Cleanup(dying.Close)
	healthy, _ := newWorker(t)

	engine, err := NewEngine(WithScale(dispatchTestScale()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SweepWorkers(t.Context(), dispatchTestSweep(), []string{dying.URL, healthy.URL})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsJSON(t, res.Rows); got != want {
		t.Errorf("rows after worker death differ from local:\n got %s\nwant %s", got, want)
	}
	if !kw.killed.Load() {
		t.Error("victim worker was never exercised (fault not injected)")
	}
}

// TestSweepWorkersFleetAllDead degrades to local execution when every worker
// refuses batches, still byte-identical.
func TestSweepWorkersFleetAllDead(t *testing.T) {
	want := localSweepRows(t)

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(dead.Close)

	engine, err := NewEngine(WithScale(dispatchTestScale()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SweepWorkers(t.Context(), dispatchTestSweep(), []string{dead.URL})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsJSON(t, res.Rows); got != want {
		t.Errorf("all-dead-fleet rows differ from local:\n got %s\nwant %s", got, want)
	}
}

// TestSweepEndpointWorkersField drives the whole stack over HTTP: a dispatcher
// server whose /v1/sweep request names two worker servers.
func TestSweepEndpointWorkersField(t *testing.T) {
	w1, _ := newWorker(t)
	w2, _ := newWorker(t)
	front := testServer(t)

	body := fmt.Sprintf(`{"core_counts": [2], "mixes": ["H"], "prb_sizes": [16],
		"techniques": ["GDP"], "workloads": 1, "instructions_per_core": 3000,
		"interval_cycles": 2000, "seed": 1, "workers": [%q, %q]}`, w1.URL, w2.URL)
	rec := postJSON(t, front, "/v1/sweep", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var distributed SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &distributed); err != nil {
		t.Fatal(err)
	}

	local := postJSON(t, testServer(t), "/v1/sweep", strings.Replace(body, "workers", "ignored_workers", 1))
	if local.Code != http.StatusOK {
		t.Fatalf("local status = %d, body = %s", local.Code, local.Body.String())
	}
	var want SweepResponse
	if err := json.Unmarshal(local.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if len(distributed.Rows) == 0 || rowsJSON(t, distributed.Rows) != rowsJSON(t, want.Rows) {
		t.Errorf("workers-field rows differ from local:\n got %+v\nwant %+v", distributed.Rows, want.Rows)
	}
}

// TestSweepEndpointWorkersValidation: malformed fleet specifications are
// client errors, reported before any simulation starts.
func TestSweepEndpointWorkersValidation(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"bad scheme", `{"workers": ["ftp://host:1"]}`},
		{"has path", `{"workers": ["http://host:1/api"]}`},
		{"duplicate", `{"workers": ["http://h:1", "http://h:1"]}`},
		{"credentials", `{"workers": ["http://user:pw@h:1"]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, srv, "/v1/sweep", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (body %s)", rec.Code, rec.Body.String())
			}
		})
	}
	long := `{"workers": [` + strings.Repeat(`"http://h:1",`, 64) + `"http://h:2"]}`
	rec := postJSON(t, srv, "/v1/sweep", long)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized fleet: status = %d, want 400", rec.Code)
	}
}

// testCell is one small accuracy cell; the seed tells cells apart.
func testCell(seed int64) experiments.Cell {
	return experiments.Cell{
		Kind: experiments.CellKindAccuracy, Cores: 2, Mix: "H", PRB: 16,
		Seed: seed, Workloads: 1, InstructionsPerCore: 3000, IntervalCycles: 2000,
		Techniques: []string{"GDP"},
	}
}

// holdCell occupies the cell's entry in the worker's cache with a computation
// the test releases: the worker's own execution of the cell joins it in
// flight, so the test decides when the cell finishes, without simulating.
// release may be called more than once.
func holdCell(t *testing.T, e *Engine, c experiments.Cell) (release func()) {
	t.Helper()
	key, err := runner.SpecKey(c.Spec())
	if err != nil {
		t.Fatal(err)
	}
	started, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		runner.MemoKeyedContext(context.Background(), e.Cache(), key, func() ([]SweepRow, error) {
			close(started)
			<-gate
			return []SweepRow{{Cores: c.Cores, Name: "held"}}, nil
		})
	}()
	<-started
	return sync.OnceFunc(func() { close(gate); <-done })
}

// cellsBody encodes a batch of cells, indexed in order.
func cellsBody(t *testing.T, cells ...experiments.Cell) string {
	t.Helper()
	req := dispatch.CellsRequest{APIVersion: dispatch.ProtocolVersion}
	for i, c := range cells {
		req.Cells = append(req.Cells, dispatch.CellEnvelope{Index: i, Cell: c})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestCellsEndpointProtocol exercises the worker wire endpoint directly: a
// valid batch answers with the NDJSON stream of its per-cell lines ending in
// the done line, on the same response; malformed batches are 400s.
func TestCellsEndpointProtocol(t *testing.T) {
	srv := testServer(t)
	rec := postJSON(t, srv, "/v1/cells", cellsBody(t, testCell(1)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d, body = %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("stream lines = %d, want 2 (result + done):\n%s", len(lines), rec.Body.String())
	}
	var res, done dispatch.CellResult
	if err := json.Unmarshal([]byte(lines[0]), &res); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &done); err != nil {
		t.Fatal(err)
	}
	if res.Done || res.Index != 0 || res.Error != "" || len(res.Rows) == 0 {
		t.Errorf("cell result: %+v", res)
	}
	if !done.Done || len(done.Rows) != 0 || done.Error != "" {
		t.Errorf("done line: %+v", done)
	}

	for name, body := range map[string]string{
		"wrong version": `{"api_version": "v0", "cells": [{"index": 0}]}`,
		"old version":   strings.Replace(cellsBody(t, testCell(1)), `"v2"`, `"v1"`, 1),
		"empty batch":   `{"api_version": "v2"}`,
		"bad cell":      `{"api_version": "v2", "cells": [{"index": 0, "cell": {"kind": "nope", "cores": 2}}]}`,
		"neg index":     `{"api_version": "v2", "cells": [{"index": -1, "cell": {"kind": "accuracy", "cores": 2, "mix": "H", "prb": 16}}]}`,
	} {
		if rec := postJSON(t, srv, "/v1/cells", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, rec.Code, rec.Body.String())
		}
	}

	// The batch id route is gone with the registry behind it.
	gone := httptest.NewRecorder()
	srv.ServeHTTP(gone, httptest.NewRequest(http.MethodGet, "/v1/cells/0123456789abcdef", nil))
	if gone.Code != http.StatusNotFound {
		t.Errorf("GET /v1/cells/{id}: status = %d, want 404", gone.Code)
	}
}

// TestCellsStreamIsLive posts one held and one fast cell over a real listener:
// the fast cell's line must be readable while the batch is still executing.
func TestCellsStreamIsLive(t *testing.T) {
	engine, err := NewEngine(WithScale(dispatchTestScale()), WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(engine)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	held, fast := testCell(1), testCell(2)
	release := holdCell(t, engine, held)
	defer release()
	resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(cellsBody(t, held, fast)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var got []dispatch.CellResult
	for sc.Scan() {
		var res dispatch.CellResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("status %s, line %q: %v", resp.Status, sc.Bytes(), err)
		}
		if len(got) == 0 {
			// The batch cannot have finished: its other cell is still held.
			if n := srv.dispatchSrv.servedBatches.Value(); n != 0 {
				t.Errorf("served batches = %d when the first line arrived, want 0", n)
			}
			release()
		}
		got = append(got, res)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Index != 1 || got[1].Index != 0 || !got[2].Done {
		t.Fatalf("stream = %+v, want the fast cell (1), the held cell (0), then done", got)
	}
}

// TestCellsHeadersBeatSlowCells is the header-wait regression: a dispatcher
// bounds its wait for the response headers, so a worker whose cells take
// longer than that wait must still answer in time — the cells complete
// remotely, none is re-simulated locally and the worker is never marked failed.
func TestCellsHeadersBeatSlowCells(t *testing.T) {
	const headerWait = 300 * time.Millisecond
	w, srv := newWorker(t)
	metrics := dispatch.NewMetrics(telemetry.NewRegistry())
	pool, err := dispatch.NewPool(dispatch.Options{
		Workers:               []string{w.URL},
		ResponseHeaderTimeout: headerWait,
		Metrics:               metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := []experiments.Cell{testCell(1), testCell(2)}
	for _, c := range cells {
		time.AfterFunc(3*headerWait, holdCell(t, srv.engine, c))
	}
	var local atomic.Int64
	groups, err := pool.Run(t.Context(), cells, dispatch.RunConfig{
		Local: func(ctx context.Context, c experiments.Cell) ([]SweepRow, error) {
			local.Add(1)
			return []SweepRow{{Cores: c.Cores, Name: "local"}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rows := range groups {
		if len(rows) != 1 || rows[0].Name != "held" {
			t.Errorf("cell %d rows = %+v, want the worker's held rows", i, rows)
		}
	}
	if n := local.Load(); n != 0 {
		t.Errorf("%d of %d cells were re-run locally", n, len(cells))
	}
	if n := metrics.WorkerFailures.With(w.URL).Value(); n != 0 {
		t.Errorf("gdpsim_dispatch_worker_failures_total = %d, want 0", n)
	}
}

// TestDispatchMetricsExposed: after a distributed sweep, the dispatcher
// exposes gdpsim_dispatch_* series and the worker exposes served-cell series.
func TestDispatchMetricsExposed(t *testing.T) {
	w1, worker := newWorker(t)
	engine, err := NewEngine(WithScale(dispatchTestScale()))
	if err != nil {
		t.Fatal(err)
	}
	front, err := NewServer(engine)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.SweepWorkers(t.Context(), dispatchTestSweep(), []string{w1.URL}); err != nil {
		t.Fatal(err)
	}

	scrape := func(s *Server) string {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	frontMetrics := scrape(front)
	for _, want := range []string{
		`gdpsim_dispatch_cells_total{outcome="completed"} 6`,
		"gdpsim_dispatch_batches_total",
		"gdpsim_dispatch_worker_seconds",
	} {
		if !strings.Contains(frontMetrics, want) {
			t.Errorf("dispatcher /metrics missing %q", want)
		}
	}
	workerMetrics := scrape(worker)
	for _, want := range []string{
		`gdpsim_dispatch_served_cells_total{outcome="completed"} 6`,
		"gdpsim_dispatch_served_batches_total",
	} {
		if !strings.Contains(workerMetrics, want) {
			t.Errorf("worker /metrics missing %q", want)
		}
	}
}
