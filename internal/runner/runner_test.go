package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// sleepJobs builds jobs whose execution time is inversely related to their
// index, so completion order differs from submission order under parallelism.
func sleepJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("job-%d", i),
			Fn: func(ctx context.Context) (int, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestRunCollectsByIndexRegardlessOfWorkers(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		res, err := Run(context.Background(), sleepJobs(12), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := Run[int](context.Background(), nil, Options{})
	if err != nil || res != nil {
		t.Fatalf("empty run: %v %v", res, err)
	}
}

func TestRunReportsLowestIndexError(t *testing.T) {
	jobs := make([]Job[int], 8)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("job-%d", i),
			Fn: func(ctx context.Context) (int, error) {
				if i >= 3 {
					return 0, fmt.Errorf("boom %d", i)
				}
				return i, nil
			},
		}
	}
	_, err := Run(context.Background(), jobs, Options{Workers: 8})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "job-") {
		t.Fatalf("error %v does not identify the failing job", err)
	}
	// Serial execution pins the failure to the lowest-index failing job.
	_, err = Run(context.Background(), jobs, Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "job-3") {
		t.Fatalf("serial error = %v, want job-3's failure", err)
	}
}

func TestRunCancellationStopsWorkersPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	jobs := make([]Job[int], 64)
	for i := range jobs {
		jobs[i] = Job[int]{Fn: func(ctx context.Context) (int, error) {
			started.Add(1)
			select {
			case <-release:
				return 0, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}}
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, jobs, Options{Workers: 4})
		done <- err
	}()
	for started.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
	if n := started.Load(); n >= 64 {
		t.Fatalf("all %d jobs started despite cancellation", n)
	}
	close(release)
}

type specV struct {
	Op   string
	Seed int64
}

func TestMemoDeduplicatesConcurrentCalls(t *testing.T) {
	cache := NewCache()
	var computed atomic.Int64
	jobs := make([]Job[int], 16)
	for i := range jobs {
		jobs[i] = Job[int]{
			Spec: specV{Op: "same", Seed: 1},
			Fn: func(ctx context.Context) (int, error) {
				computed.Add(1)
				time.Sleep(5 * time.Millisecond)
				return 42, nil
			},
		}
	}
	res, err := Run(context.Background(), jobs, Options{Workers: 16, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res {
		if v != 42 {
			t.Fatalf("got %d, want 42", v)
		}
	}
	if n := computed.Load(); n != 1 {
		t.Fatalf("identical spec computed %d times, want 1", n)
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits != 15 {
		t.Fatalf("hits=%d misses=%d, want 15/1", hits, misses)
	}
}

func TestDiskCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	fn := func() (map[string]float64, error) {
		computed.Add(1)
		return map[string]float64{"stp": 1.5}, nil
	}
	if _, hit, err := Memo(c1, specV{Op: "cell", Seed: 7}, fn); err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v", hit, err)
	}

	// A fresh cache instance (a new process, conceptually) must find the
	// entry on disk without recomputing.
	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, hit, err := Memo(c2, specV{Op: "cell", Seed: 7}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || v["stp"] != 1.5 {
		t.Fatalf("disk recall failed: hit=%v v=%v", hit, v)
	}
	if computed.Load() != 1 {
		t.Fatalf("computed %d times, want 1", computed.Load())
	}
	// Entries land in the sharded layout: dir/<2-hex-chars>/<key>.entry.
	files, _ := filepath.Glob(filepath.Join(dir, "??", "*"+entryExt))
	if len(files) != 1 {
		t.Fatalf("cache dir holds %d sharded files, want 1", len(files))
	}
	if flat, _ := filepath.Glob(filepath.Join(dir, "*"+entryExt)); len(flat) != 0 {
		t.Fatalf("cache dir holds %d flat files, want 0", len(flat))
	}
}

// TestDiskCacheShardLayout pins the sharded path scheme: the shard directory
// is the first two hex characters of the spec key.
func TestDiskCacheShardLayout(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := specV{Op: "shard", Seed: 3}
	if _, _, err := Memo(c, spec, func() (int, error) { return 9, nil }); err != nil {
		t.Fatal(err)
	}
	key, err := SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, key[:2], key+entryExt)
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("expected entry at %s: %v", want, err)
	}
}

// TestMemoKeyedContextMatchesMemoContext: the precomputed-key path and the
// spec path address the same entries.
func TestMemoKeyedContextMatchesMemoContext(t *testing.T) {
	cache := NewCache()
	spec := specV{Op: "keyed", Seed: 1}
	if _, _, err := Memo(cache, spec, func() (int, error) { return 31, nil }); err != nil {
		t.Fatal(err)
	}
	key, err := SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	v, hit, err := MemoKeyedContext(context.Background(), cache, key, func() (int, error) { return -1, nil })
	if err != nil || !hit || v != 31 {
		t.Fatalf("keyed lookup: v=%d hit=%v err=%v, want 31/true/nil", v, hit, err)
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	cache := NewCache()
	calls := 0
	fail := errors.New("transient")
	fn := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, fail
		}
		return 7, nil
	}
	if _, _, err := Memo(cache, specV{Op: "x"}, fn); !errors.Is(err, fail) {
		t.Fatalf("err = %v, want %v", err, fail)
	}
	v, hit, err := Memo(cache, specV{Op: "x"}, fn)
	if err != nil || hit || v != 7 {
		t.Fatalf("retry after error: v=%d hit=%v err=%v", v, hit, err)
	}
}

func TestSpecKeyStableAndDistinct(t *testing.T) {
	a1, err := SpecKey(specV{Op: "a", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := SpecKey(specV{Op: "a", Seed: 1})
	b, _ := SpecKey(specV{Op: "a", Seed: 2})
	if a1 != a2 {
		t.Error("equal specs hash differently")
	}
	if a1 == b {
		t.Error("distinct specs collide")
	}
	if _, err := SpecKey(func() {}); err == nil {
		t.Error("unhashable spec accepted")
	}
}

func TestTableCSVAndJSON(t *testing.T) {
	tab := Table{
		Header: []string{"cores", "mix", "stp"},
		Rows:   [][]string{{"2", "H", "1.52"}, {"4", "M", "2.91"}},
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "cores,mix,stp\n2,H,1.52\n4,M,2.91\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}

	bad := Table{Header: []string{"a"}, Rows: [][]string{{"1", "2"}}}
	if err := bad.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Error("ragged table accepted")
	}

	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteJSONFile(path, map[string]int{"n": 3}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "\"n\": 3") {
		t.Errorf("json file = %q", raw)
	}
}

func TestConsoleProgressFormat(t *testing.T) {
	var buf bytes.Buffer
	_, err := Run(context.Background(), sleepJobs(3), Options{
		Workers:  1,
		Progress: ConsoleProgress(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[1/3]") || !strings.Contains(out, "[3/3]") {
		t.Errorf("progress output missing counters:\n%s", out)
	}
	if !strings.Contains(out, "eta=") {
		t.Errorf("progress output missing ETA:\n%s", out)
	}
}

func TestMemoContextAbandonsInflightWait(t *testing.T) {
	c := NewCache()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = Memo(c, "slow-spec", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := MemoContext(ctx, c, "slow-spec", func() (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)

	// The original computation's result must still land in the cache.
	v, hit, err := Memo(c, "slow-spec", func() (int, error) { return 3, nil })
	if err != nil || v != 1 || !hit {
		t.Fatalf("v=%d hit=%v err=%v, want cached 1", v, hit, err)
	}
}

// TestMemoContextWaiterSurvivesOwnersCancellation: when the goroutine that
// owns an in-flight computation dies of its own cancellation, a waiter with
// a live context must retry (and take over the computation), not inherit the
// foreign context error.
func TestMemoContextWaiterSurvivesOwnersCancellation(t *testing.T) {
	c := NewCache()
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = Memo(c, "poisoned-spec", func() (int, error) {
			close(started)
			<-release
			return 0, context.Canceled // the owner's request was cancelled
		})
	}()
	<-started

	waiterDone := make(chan struct{})
	var v int
	var err error
	go func() {
		defer close(waiterDone)
		v, _, err = MemoContext(context.Background(), c, "poisoned-spec", func() (int, error) {
			return 42, nil
		})
	}()
	close(release)
	select {
	case <-waiterDone:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never returned")
	}
	if err != nil || v != 42 {
		t.Fatalf("waiter got (%d, %v), want (42, nil): owner's cancellation leaked", v, err)
	}
}

// TestDetailedStatsSplitsLayers drives a disk-backed cache through a miss, a
// memory hit, and (via a fresh instance over the same directory) a disk hit,
// checking each lands in its own counter and that Stats() stays the sum.
func TestDetailedStatsSplitsLayers(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := map[string]int{"n": 1}
	fn := func() (int, error) { return 7, nil }

	if _, hit, err := Memo(c1, spec, fn); err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v", hit, err)
	}
	if _, hit, err := Memo(c1, spec, fn); err != nil || !hit {
		t.Fatalf("second call: hit=%v err=%v", hit, err)
	}
	s := c1.DetailedStats()
	if s.Misses != 1 || s.MemoryHits != 1 || s.DiskHits != 0 {
		t.Fatalf("c1 stats = %+v", s)
	}
	if s.DiskBytesWritten <= 0 {
		t.Fatalf("disk bytes written = %d, want > 0", s.DiskBytesWritten)
	}

	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := Memo(c2, spec, fn); err != nil || !hit {
		t.Fatalf("disk-layer call: hit=%v err=%v", hit, err)
	}
	s2 := c2.DetailedStats()
	if s2.DiskHits != 1 || s2.MemoryHits != 0 || s2.Misses != 0 {
		t.Fatalf("c2 stats = %+v", s2)
	}
	hits, misses := c2.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("c2 aggregate = %d/%d, want 1/0", hits, misses)
	}
}

// TestInflightJoinCountsAsJoin verifies a concurrent duplicate lookup lands
// in the inflight-join counter rather than the memory-hit counter.
func TestInflightJoinCountsAsJoin(t *testing.T) {
	c := NewCache()
	started := make(chan struct{})
	release := make(chan struct{})
	spec := "dup"
	go func() {
		_, _, _ = Memo(c, spec, func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		if _, hit, err := Memo(c, spec, func() (int, error) { return 1, nil }); err != nil || !hit {
			t.Errorf("joiner: hit=%v err=%v", hit, err)
		}
	}()
	// Give the joiner time to block on the in-flight call before releasing.
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-joined
	s := c.DetailedStats()
	if s.InflightJoins != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 join and 1 miss", s)
	}
}

// TestPoolMetricsBalance runs a pool with metrics attached and checks the
// gauges return to zero and the outcome counters add up.
func TestPoolMetricsBalance(t *testing.T) {
	reg := telemetry.NewRegistry()
	pm := NewPoolMetrics(reg)
	cache := NewCache()
	jobs := make([]Job[int], 8)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("m-%d", i),
			Spec:  i % 4, // indices 4..7 repeat specs 0..3
			Fn:    func(ctx context.Context) (int, error) { return i, nil },
		}
	}
	if _, err := Run(context.Background(), jobs, Options{Workers: 2, Cache: cache, Metrics: pm}); err != nil {
		t.Fatal(err)
	}
	if d := pm.QueueDepth.Value(); d != 0 {
		t.Errorf("queue depth after run = %d, want 0", d)
	}
	if b := pm.BusyWorkers.Value(); b != 0 {
		t.Errorf("busy workers after run = %d, want 0", b)
	}
	ok := pm.JobsTotal.With("ok").Value()
	cached := pm.JobsTotal.With("cached").Value()
	if ok+cached != 8 {
		t.Errorf("outcomes ok=%d cached=%d, want sum 8", ok, cached)
	}
	if cached == 0 {
		t.Errorf("expected some cached outcomes with repeated specs")
	}
	if pm.JobSeconds.Count() != 8 {
		t.Errorf("job histogram count = %d, want 8", pm.JobSeconds.Count())
	}
}

// TestRunUnhashableSpecNamesJob: a spec is hashed by the worker that runs its
// job, so a spec that does not marshal fails that job, and Run's error names
// the job's label and wraps SpecKey's error.
func TestRunUnhashableSpecNamesJob(t *testing.T) {
	jobs := []Job[int]{
		{Label: "fine", Spec: specV{Op: "fine"}, Fn: func(context.Context) (int, error) { return 1, nil }},
		{Label: "unhashable", Spec: func() {}, Fn: func(context.Context) (int, error) { return 2, nil }},
	}
	for _, workers := range []int{1, 2} {
		_, err := Run(context.Background(), jobs, Options{Workers: workers, Cache: NewCache()})
		var unsupported *json.UnsupportedTypeError
		if err == nil || !strings.Contains(err.Error(), `"unhashable"`) ||
			!strings.Contains(err.Error(), "spec not hashable") || !errors.As(err, &unsupported) {
			t.Fatalf("workers=%d: err = %v, want the job's label wrapping SpecKey's error", workers, err)
		}
	}
}
