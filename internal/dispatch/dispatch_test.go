package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// fakeWorker implements the worker wire protocol over a fake cell executor,
// with hooks to inject transport faults.
type fakeWorker struct {
	exec func(experiments.Cell) ([]experiments.SweepRow, error)

	posts       atomic.Int64
	streamLines atomic.Int64

	// rejectPosts makes every POST fail with 503.
	rejectPosts atomic.Bool
	// cutAfterLines aborts the result stream after N result lines (once set).
	cutAfterLines atomic.Int64
	// blockCell, when set, blocks matching cells until the client goes away.
	blockCell func(experiments.Cell) bool
	// firstPost, when set, runs inside the first POST /v1/cells handler.
	firstPost func()
	// answerIndex, when set, rewrites the index a result line carries.
	answerIndex func(int) int
}

func newFakeWorker(exec func(experiments.Cell) ([]experiments.SweepRow, error)) *fakeWorker {
	return &fakeWorker{exec: exec}
}

func (f *fakeWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/cells" {
		http.NotFound(w, r)
		return
	}
	if f.posts.Add(1) == 1 && f.firstPost != nil {
		f.firstPost()
	}
	if f.rejectPosts.Load() {
		http.Error(w, "shedding", http.StatusServiceUnavailable)
		return
	}
	var req CellsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.APIVersion != ProtocolVersion {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	enc := json.NewEncoder(w)
	w.(http.Flusher).Flush()
	for _, env := range req.Cells {
		if f.blockCell != nil && f.blockCell(env.Cell) {
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		}
		if cut := f.cutAfterLines.Load(); cut > 0 && f.streamLines.Load() >= cut {
			panic(http.ErrAbortHandler)
		}
		res := CellResult{Index: env.Index}
		if f.answerIndex != nil {
			res.Index = f.answerIndex(env.Index)
		}
		rows, err := f.exec(env.Cell)
		if err != nil {
			res.Error = err.Error()
		} else {
			res.Rows = rows
		}
		enc.Encode(res)
		w.(http.Flusher).Flush()
		f.streamLines.Add(1)
	}
	enc.Encode(CellResult{Done: true})
}

// fakeRows is the pure "simulation" of the scheduling tests: rows derived
// only from the cell, so any execution site agrees byte-for-byte.
func fakeRows(c experiments.Cell) []experiments.SweepRow {
	return []experiments.SweepRow{{
		Cores: c.Cores, Mix: c.Mix, PRB: c.PRB, Kind: c.Kind, Name: "fake",
		MeanIPCAbsRMS: float64(c.Seed) / 16,
	}}
}

// fakeExec adapts fakeRows to the worker executor signature.
func fakeExec(c experiments.Cell) ([]experiments.SweepRow, error) {
	return fakeRows(c), nil
}

func testCells(n int) []experiments.Cell {
	cells := make([]experiments.Cell, n)
	for i := range cells {
		cells[i] = experiments.Cell{
			Kind: experiments.CellKindAccuracy, Cores: 2 + i%4, Mix: "H",
			PRB: 8 + i, Seed: int64(i),
		}
	}
	return cells
}

func wantGroups(cells []experiments.Cell) [][]experiments.SweepRow {
	out := make([][]experiments.SweepRow, len(cells))
	for i, c := range cells {
		out[i] = fakeRows(c)
	}
	return out
}

// testOptions returns fast-paced options for scheduling tests.
func testOptions(workers ...string) Options {
	return Options{
		Workers:          workers,
		BatchSize:        2,
		StealAfter:       time.Minute,
		MaxAttempts:      3,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Second,
		LocalJobs:        2,
	}
}

// localCounter wraps the fake executor as a LocalFunc that counts calls.
type localCounter struct{ calls atomic.Int64 }

func (l *localCounter) fn(ctx context.Context, c experiments.Cell) ([]experiments.SweepRow, error) {
	l.calls.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return fakeRows(c), nil
}

func TestParseWorkers(t *testing.T) {
	cases := []struct {
		in      []string
		want    []string
		wantErr string
	}{
		{in: nil, want: nil},
		{in: []string{" ", ""}, want: nil},
		{in: []string{"host1:8080", "http://host2"}, want: []string{"http://host1:8080", "http://host2"}},
		{in: []string{"https://host/"}, want: []string{"https://host"}},
		{in: []string{"ftp://host"}, wantErr: "unsupported scheme"},
		{in: []string{"http://"}, wantErr: "missing host"},
		{in: []string{"http://user:pw@host"}, wantErr: "credentials"},
		{in: []string{"http://host/api"}, wantErr: "unexpected path"},
		{in: []string{"http://host?x=1"}, wantErr: "query"},
		{in: []string{"host", "http://host"}, wantErr: "duplicate"},
		// Same target under different spellings: hostnames are
		// case-insensitive and :80/:443 are the scheme defaults.
		{in: []string{"http://HOST", "host"}, wantErr: "duplicate"},
		{in: []string{"host:80", "http://host"}, wantErr: "duplicate"},
		{in: []string{"https://host:443", "https://host"}, wantErr: "duplicate"},
		// Canonical form is what the fleet sees; :80 on https is a real port.
		{in: []string{"http://Host:80", "https://host:80"}, want: []string{"http://host", "https://host:80"}},
	}
	for _, tc := range cases {
		got, err := ParseWorkers(tc.in)
		if tc.wantErr != "" {
			var werr *WorkerURLError
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseWorkers(%v) err = %v, want containing %q", tc.in, err, tc.wantErr)
			} else if !errors.As(err, &werr) {
				t.Errorf("ParseWorkers(%v) error is %T, want *WorkerURLError", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseWorkers(%v): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseWorkers(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// rendezvousFirstPosts makes each fake's first POST block until the other fake
// has been posted to. The fakes answer instantly, so without it one can drain
// the whole grid before the other's first POST lands; with it "both workers
// served" is structural.
func rendezvousFirstPosts(t *testing.T, f1, f2 *fakeWorker) {
	posted := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	for i, f := range []*fakeWorker{f1, f2} {
		f.firstPost = func() {
			close(posted[i])
			select {
			case <-posted[1-i]:
			case <-time.After(10 * time.Second):
				t.Errorf("worker %d was posted to but worker %d never was", i, 1-i)
			}
		}
	}
}

// TestPoolRemoteMatchesLocal pins the core contract: a grid dispatched across
// two healthy workers merges by index into exactly the rows local execution
// produces, without touching the local executor.
func TestPoolRemoteMatchesLocal(t *testing.T) {
	f1, f2 := newFakeWorker(fakeExec), newFakeWorker(fakeExec)
	s1, s2 := httptest.NewServer(f1), httptest.NewServer(f2)
	defer s1.Close()
	defer s2.Close()

	rendezvousFirstPosts(t, f1, f2)

	reg := telemetry.NewRegistry()
	opts := testOptions(s1.URL, s2.URL)
	opts.Metrics = NewMetrics(reg)
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(9)
	var local localCounter
	got, err := pool.Run(context.Background(), cells, RunConfig{Local: local.fn})
	if err != nil {
		t.Fatal(err)
	}
	if want := wantGroups(cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed rows diverge from local:\ngot  %v\nwant %v", got, want)
	}
	if n := local.calls.Load(); n != 0 {
		t.Fatalf("local executor ran %d cells with a healthy fleet", n)
	}
	if f1.posts.Load() == 0 || f2.posts.Load() == 0 {
		t.Fatalf("load not spread: posts = %d, %d", f1.posts.Load(), f2.posts.Load())
	}
	if n := opts.Metrics.Cells.With("completed").Value(); n != uint64(len(cells)) {
		t.Fatalf("completed counter = %d, want %d", n, len(cells))
	}
	if opts.Metrics.Batches.Value() == 0 {
		t.Fatal("batches counter never incremented")
	}
}

// TestPoolFleetEmptyFallsBackLocal: no workers at all degrades to pure local
// execution with identical rows.
func TestPoolFleetEmptyFallsBackLocal(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := testOptions()
	opts.Metrics = NewMetrics(reg)
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(5)
	var local localCounter
	got, err := pool.Run(context.Background(), cells, RunConfig{Local: local.fn})
	if err != nil {
		t.Fatal(err)
	}
	if want := wantGroups(cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet-empty rows diverge:\ngot  %v\nwant %v", got, want)
	}
	if n := opts.Metrics.Cells.With("local").Value(); n != uint64(len(cells)) {
		t.Fatalf("local counter = %d, want %d", n, len(cells))
	}
}

// TestPoolWorkerDiesMidGrid kills one worker after its first streamed result
// (stream cut, then 503 on every later POST) and asserts the run still
// completes with byte-identical rows via retry on the surviving worker.
func TestPoolWorkerDiesMidGrid(t *testing.T) {
	dying, healthy := newFakeWorker(fakeExec), newFakeWorker(fakeExec)
	s1, s2 := httptest.NewServer(dying), httptest.NewServer(healthy)
	defer s1.Close()
	defer s2.Close()
	dying.cutAfterLines.Store(1)
	dying.rejectPosts.Store(false)
	rendezvousFirstPosts(t, dying, healthy)

	reg := telemetry.NewRegistry()
	opts := testOptions(s1.URL, s2.URL)
	opts.Metrics = NewMetrics(reg)
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	// After the stream cut, make the worker reject everything (killed).
	go func() {
		time.Sleep(5 * time.Millisecond)
		dying.rejectPosts.Store(true)
	}()
	cells := testCells(12)
	var local localCounter
	got, err := pool.Run(context.Background(), cells, RunConfig{Local: local.fn})
	if err != nil {
		t.Fatal(err)
	}
	if want := wantGroups(cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows diverge after worker death:\ngot  %v\nwant %v", got, want)
	}
	if opts.Metrics.Cells.With("retried").Value() == 0 {
		t.Fatal("no cells were retried despite a dying worker")
	}
	if opts.Metrics.WorkerFailures.With(s1.URL).Value() == 0 {
		t.Fatal("dying worker's failures not counted")
	}
}

// TestPoolAllWorkersUnhealthy: every POST fails, breakers open, and the local
// executor finishes the grid.
func TestPoolAllWorkersUnhealthy(t *testing.T) {
	f1, f2 := newFakeWorker(fakeExec), newFakeWorker(fakeExec)
	f1.rejectPosts.Store(true)
	f2.rejectPosts.Store(true)
	s1, s2 := httptest.NewServer(f1), httptest.NewServer(f2)
	defer s1.Close()
	defer s2.Close()

	reg := telemetry.NewRegistry()
	opts := testOptions(s1.URL, s2.URL)
	opts.Metrics = NewMetrics(reg)
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(6)
	var local localCounter
	got, err := pool.Run(context.Background(), cells, RunConfig{Local: local.fn})
	if err != nil {
		t.Fatal(err)
	}
	if want := wantGroups(cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows diverge with unhealthy fleet:\ngot  %v\nwant %v", got, want)
	}
	if local.calls.Load() == 0 {
		t.Fatal("local executor never ran despite a dead fleet")
	}
	if opts.Metrics.BreakerOpen.With(s1.URL).Value()+opts.Metrics.BreakerOpen.With(s2.URL).Value() == 0 {
		t.Fatal("no breaker opened")
	}
}

// TestPoolForeignIndexRejected: a worker that labels its results with the
// index of a cell it was never sent must not complete that other cell with the
// wrong rows. The answer is a protocol violation that fails the batch like a
// cut stream, so the cells are retried and finally run locally.
func TestPoolForeignIndexRejected(t *testing.T) {
	f := newFakeWorker(fakeExec)
	f.answerIndex = func(i int) int { return i + 1 }
	s := httptest.NewServer(f)
	defer s.Close()

	opts := testOptions(s.URL)
	opts.BatchSize = 1 // every answered index is outside its one-cell batch
	opts.Metrics = NewMetrics(telemetry.NewRegistry())
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(4)
	var local localCounter
	got, err := pool.Run(context.Background(), cells, RunConfig{Local: local.fn})
	if err != nil {
		t.Fatal(err)
	}
	if want := wantGroups(cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("a foreign index completed the wrong cell:\ngot  %v\nwant %v", got, want)
	}
	if opts.Metrics.WorkerFailures.With(s.URL).Value() == 0 {
		t.Fatal("foreign index was not counted as a worker failure")
	}
	if n := opts.Metrics.Cells.With("completed").Value(); n != 0 {
		t.Fatalf("%d cells completed remotely from mislabelled results", n)
	}
}

// TestPoolStragglerSteal: a single worker hangs on one cell past the steal
// deadline; the local executor steals it and the run completes.
func TestPoolStragglerSteal(t *testing.T) {
	f := newFakeWorker(fakeExec)
	f.blockCell = func(c experiments.Cell) bool { return c.Seed == 0 }
	s := httptest.NewServer(f)
	defer s.Close()

	reg := telemetry.NewRegistry()
	opts := testOptions(s.URL)
	opts.BatchSize = 1
	opts.StealAfter = 50 * time.Millisecond
	opts.Metrics = NewMetrics(reg)
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(3)
	var local localCounter
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := pool.Run(ctx, cells, RunConfig{Local: local.fn})
	if err != nil {
		t.Fatal(err)
	}
	if want := wantGroups(cells); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows diverge after straggler steal:\ngot  %v\nwant %v", got, want)
	}
	if opts.Metrics.Cells.With("stolen").Value() == 0 {
		t.Fatal("straggler cell was never stolen")
	}
}

// TestPoolCellErrorFailsRun: a domain error from a cell fails the whole run
// deterministically with the cell's label, both locally and remotely.
func TestPoolCellErrorFailsRun(t *testing.T) {
	boom := func(c experiments.Cell) ([]experiments.SweepRow, error) {
		if c.Seed == 1 {
			return nil, fmt.Errorf("synthetic cell failure")
		}
		return fakeRows(c), nil
	}

	t.Run("local", func(t *testing.T) {
		pool, err := NewPool(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		cells := testCells(4)
		_, err = pool.Run(context.Background(), cells, RunConfig{
			Local: func(ctx context.Context, c experiments.Cell) ([]experiments.SweepRow, error) {
				return boom(c)
			},
		})
		if err == nil || !strings.Contains(err.Error(), "synthetic cell failure") {
			t.Fatalf("err = %v, want synthetic cell failure", err)
		}
		if !strings.Contains(err.Error(), cells[1].Label()) {
			t.Fatalf("err = %v, want label %q", err, cells[1].Label())
		}
	})

	t.Run("remote", func(t *testing.T) {
		f := newFakeWorker(boom)
		s := httptest.NewServer(f)
		defer s.Close()
		pool, err := NewPool(testOptions(s.URL))
		if err != nil {
			t.Fatal(err)
		}
		var local localCounter
		_, err = pool.Run(context.Background(), testCells(4), RunConfig{Local: local.fn})
		if err == nil || !strings.Contains(err.Error(), "synthetic cell failure") {
			t.Fatalf("err = %v, want synthetic cell failure", err)
		}
	})
}

// TestPoolCacheShortCircuit: cells already in the front-end cache are never
// dispatched.
func TestPoolCacheShortCircuit(t *testing.T) {
	f := newFakeWorker(fakeExec)
	s := httptest.NewServer(f)
	defer s.Close()

	reg := telemetry.NewRegistry()
	opts := testOptions(s.URL)
	opts.Metrics = NewMetrics(reg)
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(4)
	cache := &mapCache{m: map[string][]experiments.SweepRow{}}
	// Prefill by running once (against the worker), then rerun from cache.
	var local localCounter
	want, err := pool.Run(context.Background(), cells, RunConfig{Local: local.fn, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	posts := f.posts.Load()
	if posts == 0 {
		t.Fatal("first run never dispatched")
	}
	got, err := pool.Run(context.Background(), cells, RunConfig{Local: local.fn, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached rerun diverges:\ngot  %v\nwant %v", got, want)
	}
	if f.posts.Load() != posts {
		t.Fatalf("cached rerun dispatched: posts %d -> %d", posts, f.posts.Load())
	}
	if n := opts.Metrics.Cells.With("cached").Value(); n != uint64(len(cells)) {
		t.Fatalf("cached counter = %d, want %d", n, len(cells))
	}
}

type mapCache struct {
	mu sync.Mutex
	m  map[string][]experiments.SweepRow
}

func (c *mapCache) Get(key string) ([]experiments.SweepRow, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rows, ok := c.m[key]
	return rows, ok
}

func (c *mapCache) Put(key string, rows []experiments.SweepRow) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = rows
}
