package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// Options configure a Pool. The zero value (plus withDefaults) dispatches to
// no workers, which makes every cell eligible for local execution — the
// fleet-empty degradation path is the same code as the steady state.
type Options struct {
	// Workers are the fleet's base URLs (normalized by ParseWorkers).
	Workers []string
	// BatchSize caps the cells claimed per POST (default 4): small batches
	// keep the fleet load-balanced and bound the work lost to a dead worker.
	BatchSize int
	// StealAfter is the straggler deadline: a cell claimed this long ago
	// without a result becomes claimable by any other worker or the local
	// executor (default 30s). Duplicate execution is safe — cells are pure,
	// so the first result wins and the rest are identical.
	StealAfter time.Duration
	// MaxAttempts caps remote attempts per cell before it is handed to the
	// local executor (default 3).
	MaxAttempts int
	// BackoffBase and BackoffMax bound the jittered exponential backoff a
	// worker sleeps after a transport failure (defaults 100ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold consecutive transport failures open a worker's circuit
	// breaker for BreakerCooldown (defaults 3 and 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// LocalJobs is the width of the local fallback executor (default
	// runtime.NumCPU()).
	LocalJobs int
	// Client overrides the HTTP client. The default client carries no global
	// timeout — result streams are legitimately long-lived and cancellation
	// comes from ctx — but its transport bounds every pre-stream phase (dial,
	// TLS, response headers), so a worker that accepts connections and then
	// never answers cannot hang a sweep.
	Client *http.Client
	// ResponseHeaderTimeout bounds how long the default client waits for a
	// worker's response headers after writing a request (default 30s). Ignored
	// when Client is set.
	ResponseHeaderTimeout time.Duration
	// Metrics instruments the dispatcher (nil = off).
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 4
	}
	if o.StealAfter <= 0 {
		o.StealAfter = 30 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	if o.LocalJobs <= 0 {
		o.LocalJobs = runtime.NumCPU()
	}
	if o.ResponseHeaderTimeout <= 0 {
		o.ResponseHeaderTimeout = 30 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{
			Transport: &http.Transport{
				Proxy: http.ProxyFromEnvironment,
				DialContext: (&net.Dialer{
					Timeout:   10 * time.Second,
					KeepAlive: 30 * time.Second,
				}).DialContext,
				TLSHandshakeTimeout:   10 * time.Second,
				ResponseHeaderTimeout: o.ResponseHeaderTimeout,
				ExpectContinueTimeout: 1 * time.Second,
				IdleConnTimeout:       90 * time.Second,
				MaxIdleConnsPerHost:   16,
			},
		}
	}
	return o
}

// Pool dispatches sweep cells across a worker fleet. A Pool is safe for
// concurrent Run calls; worker health (failure streaks, breakers) is shared
// across runs so a flapping worker stays quarantined between sweeps.
type Pool struct {
	opts    Options
	workers []*workerClient
}

// NewPool validates the worker URLs and builds a pool.
func NewPool(opts Options) (*Pool, error) {
	workers, err := ParseWorkers(opts.Workers)
	if err != nil {
		return nil, err
	}
	opts.Workers = workers
	opts = opts.withDefaults()
	p := &Pool{opts: opts}
	for _, u := range workers {
		p.workers = append(p.workers, &workerClient{url: u, client: opts.Client})
	}
	return p, nil
}

// LocalFunc executes one cell in-process (the graceful-degradation path).
type LocalFunc func(ctx context.Context, cell experiments.Cell) ([]experiments.SweepRow, error)

// CellCache is the dispatcher's view of the front-end result cache: completed
// cells are stored under their spec key, and cells already present are never
// dispatched. runner.Cache satisfies this through a small adapter at the
// engine layer.
type CellCache interface {
	Get(key string) ([]experiments.SweepRow, bool)
	Put(key string, rows []experiments.SweepRow)
}

// RunConfig carries one run's execution environment.
type RunConfig struct {
	// Local executes a cell in-process. Required: it is the fallback that
	// guarantees a run terminates with an empty or fully unhealthy fleet.
	Local LocalFunc
	// Cache, when non-nil, answers cells without dispatch and absorbs every
	// completion (local and remote), so repeated sweeps stay cheap on the
	// front end too.
	Cache CellCache
	// Progress, when non-nil, receives one event per completed cell,
	// matching the local runner's reporting.
	Progress runner.ProgressFunc
}

// cellState tracks one cell through the scheduler. claimedBy is -1 when
// unclaimed, localClaim when the local executor owns it, else a worker index.
type cellState struct {
	done      bool
	claimedBy int
	claimedAt time.Time
	idleSince time.Time // last instant the cell became (or stayed) unclaimed
	attempts  int       // remote attempts
	rows      []experiments.SweepRow
	err       error
}

const (
	unclaimed  = -1
	localClaim = -2
)

// run is the mutable state of one Pool.Run.
type run struct {
	pool   *Pool
	cfg    RunConfig
	cells  []experiments.Cell
	keys   []string
	cancel context.CancelFunc

	mu        sync.Mutex
	states    []cellState
	remaining int
	completed int
	changed   chan struct{} // replaced on every broadcast
	finished  chan struct{} // closed when remaining hits zero

	progressMu sync.Mutex
	start      time.Time
}

// Run executes the cells across the fleet and returns their row groups in
// cell order — the same deterministic by-index merge as runner.Run, so a
// distributed sweep is byte-identical to a local one. On the first cell error
// the run cancels outstanding work and returns the lowest-index
// non-cancellation error.
func (p *Pool) Run(ctx context.Context, cells []experiments.Cell, cfg RunConfig) ([][]experiments.SweepRow, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("dispatch: RunConfig.Local is required")
	}
	if len(cells) == 0 {
		return nil, ctx.Err()
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		key, err := runner.SpecKey(c.Spec())
		if err != nil {
			return nil, fmt.Errorf("dispatch: cell %q: %w", c.Label(), err)
		}
		keys[i] = key
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{
		pool:      p,
		cfg:       cfg,
		cells:     cells,
		keys:      keys,
		cancel:    cancel,
		states:    make([]cellState, len(cells)),
		remaining: len(cells),
		changed:   make(chan struct{}),
		finished:  make(chan struct{}),
		start:     time.Now(),
	}
	for i := range r.states {
		r.states[i].claimedBy = unclaimed
		r.states[i].idleSince = r.start
	}

	// Cache prefill: cells the front end already holds never hit the wire.
	if cfg.Cache != nil {
		for i := range cells {
			if rows, ok := cfg.Cache.Get(keys[i]); ok {
				r.complete(i, rows, "cached", true)
			}
		}
	}

	// Workers stuck streaming a batch unblock when the run finishes (their
	// request context is runCtx).
	go func() {
		select {
		case <-r.finished:
		case <-runCtx.Done():
		}
		cancel()
	}()

	var wg sync.WaitGroup
	for wi := range p.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.workerLoop(runCtx, wi)
		}()
	}
	for j := 0; j < p.opts.LocalJobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.localLoop(runCtx)
		}()
	}
	wg.Wait()

	// Deterministic error selection, mirroring runner.Run: the lowest-index
	// cell that failed for a reason other than cancellation wins.
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.states {
		if err := r.states[i].err; err != nil &&
			!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("dispatch: cell %q: %w", cells[i].Label(), err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range r.states {
		if !r.states[i].done {
			return nil, fmt.Errorf("dispatch: cell %q was never executed", cells[i].Label())
		}
		if r.states[i].err != nil {
			return nil, r.states[i].err
		}
	}
	out := make([][]experiments.SweepRow, len(cells))
	for i := range r.states {
		out[i] = r.states[i].rows
	}
	return out, nil
}

// healthyWorkers counts workers whose breaker is closed right now.
func (r *run) healthyWorkers(now time.Time) int {
	n := 0
	for _, w := range r.pool.workers {
		if w.healthy(now) {
			n++
		}
	}
	return n
}

// broadcast wakes every waiter. Callers hold r.mu.
func (r *run) broadcast() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// waitChange blocks until the scheduler state changes, d elapses, or the run
// ends; it returns false when the loop should exit.
func (r *run) waitChange(ctx context.Context, d time.Duration) bool {
	r.mu.Lock()
	ch := r.changed
	r.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return true
	case <-r.finished:
		return false
	case <-ctx.Done():
		return false
	}
}

// done reports whether the run is over (all cells finished or cancelled).
func (r *run) done(ctx context.Context) bool {
	select {
	case <-r.finished:
		return true
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// complete records a cell's rows. The first result wins: a stolen cell may
// finish twice, and because cells are pure the duplicate is byte-identical
// and dropped. prefill suppresses the cache write-back for cache hits.
func (r *run) complete(idx int, rows []experiments.SweepRow, outcome string, prefill bool) {
	r.mu.Lock()
	if r.states[idx].done {
		r.mu.Unlock()
		return
	}
	r.states[idx].done = true
	r.states[idx].rows = rows
	r.states[idx].claimedBy = unclaimed
	r.remaining--
	r.completed++
	done, total := r.completed, len(r.cells)
	if r.remaining == 0 {
		close(r.finished)
	}
	r.broadcast()
	r.mu.Unlock()

	if r.cfg.Cache != nil && !prefill {
		r.cfg.Cache.Put(r.keys[idx], rows)
	}
	r.pool.opts.Metrics.cell(outcome)
	r.report(idx, done, total, outcome == "cached")
}

// fail records a cell's domain error and cancels the rest of the run
// (fail-fast, like the local runner). Cancellation errors are recorded but do
// not themselves cancel — they are a symptom, not a cause.
func (r *run) fail(idx int, err error) {
	r.mu.Lock()
	if r.states[idx].done {
		r.mu.Unlock()
		return
	}
	r.states[idx].done = true
	r.states[idx].err = err
	r.states[idx].claimedBy = unclaimed
	r.remaining--
	if r.remaining == 0 {
		close(r.finished)
	}
	r.broadcast()
	r.mu.Unlock()

	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		r.pool.opts.Metrics.cell("failed")
		r.cancel()
	}
}

// report emits one progress event, mirroring runner.Run's accounting.
func (r *run) report(idx, done, total int, cacheHit bool) {
	if r.cfg.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	elapsed := time.Since(r.start)
	var eta time.Duration
	if done > 0 && done < total {
		eta = time.Duration(float64(elapsed) / float64(done) * float64(total-done))
	}
	r.cfg.Progress(runner.Progress{
		Done: done, Total: total, Label: r.cells[idx].Label(), CacheHit: cacheHit,
		Elapsed: elapsed, ETA: eta,
	})
}

// claimRemote claims up to BatchSize cells for worker wi: unclaimed cells
// under the remote attempt cap, plus cells claimed by another worker longer
// ago than StealAfter (counted as stolen). Locally claimed cells are never
// stolen — in-process execution cannot hang on a dead peer.
func (r *run) claimRemote(wi int, now time.Time) []CellEnvelope {
	o := r.pool.opts
	var batch []CellEnvelope
	stolen := 0
	r.mu.Lock()
	for i := range r.states {
		if len(batch) >= o.BatchSize {
			break
		}
		s := &r.states[i]
		if s.done {
			continue
		}
		expired := s.claimedBy >= 0 && s.claimedBy != wi && now.Sub(s.claimedAt) > o.StealAfter
		if (s.claimedBy == unclaimed && s.attempts < o.MaxAttempts) || expired {
			if expired {
				stolen++
			}
			s.claimedBy = wi
			s.claimedAt = now
			s.attempts++
			batch = append(batch, CellEnvelope{Index: i, Cell: r.cells[i]})
		}
	}
	r.mu.Unlock()
	r.pool.opts.Metrics.cells("stolen", stolen)
	return batch
}

// unclaim returns a batch's unfinished cells to the queue (after a worker
// transport failure) and reports how many went back.
func (r *run) unclaim(wi int, batch []CellEnvelope) int {
	n := 0
	r.mu.Lock()
	now := time.Now()
	for _, env := range batch {
		s := &r.states[env.Index]
		if !s.done && s.claimedBy == wi {
			s.claimedBy = unclaimed
			s.idleSince = now
			n++
		}
	}
	if n > 0 {
		r.broadcast()
	}
	r.mu.Unlock()
	return n
}

// workerLoop drives one remote worker: claim a batch, run it, stream results,
// back off through failures, until the run ends.
func (r *run) workerLoop(ctx context.Context, wi int) {
	w := r.pool.workers[wi]
	o := r.pool.opts
	for {
		if r.done(ctx) {
			return
		}
		now := time.Now()
		if !w.healthy(now) {
			if !r.waitChange(ctx, o.BreakerCooldown/4) {
				return
			}
			continue
		}
		batch := r.claimRemote(wi, now)
		if len(batch) == 0 {
			if !r.waitChange(ctx, o.StealAfter/4) {
				return
			}
			continue
		}
		o.Metrics.batch()
		o.Metrics.cells("dispatched", len(batch))
		start := time.Now()
		err := w.runBatch(ctx, batch, func(res CellResult) {
			if res.Error != "" {
				if res.Retryable {
					// Worker-state error (shutdown, batch timeout), not a
					// property of the cell: leave it claimed; the post-batch
					// sweep below unclaims it for another executor.
					return
				}
				r.fail(res.Index, errors.New(res.Error))
				return
			}
			r.complete(res.Index, res.Rows, "completed", false)
		})
		o.Metrics.workerBatch(w.url, time.Since(start))
		if err != nil {
			if ctx.Err() != nil {
				return // run is ending; the "failure" is our own cancellation
			}
			o.Metrics.workerFailure(w.url)
			backoff, tripped := w.failure(o)
			if tripped {
				o.Metrics.breaker(w.url, true)
			}
			o.Metrics.cells("retried", r.unclaim(wi, batch))
			if !r.sleep(ctx, backoff) {
				return
			}
			continue
		}
		w.success()
		o.Metrics.breaker(w.url, false)
		// A worker that sent the done line but omitted cells from the stream
		// forfeits them back to the queue.
		o.Metrics.cells("retried", r.unclaim(wi, batch))
	}
}

// sleep waits d unless the run ends first.
func (r *run) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.finished:
		return false
	case <-ctx.Done():
		return false
	}
}

// claimLocal picks one cell for the local executor: any unclaimed cell when
// the fleet is empty/unhealthy or the cell is out of remote attempts, any
// remote claim past the steal deadline (a straggler steal), or an unclaimed
// cell no worker has picked up within the steal deadline (a saturated or
// stuck fleet must never starve the tail of a grid).
func (r *run) claimLocal(now time.Time) (int, bool) {
	o := r.pool.opts
	noFleet := r.healthyWorkers(now) == 0
	stolen := false
	r.mu.Lock()
	defer func() {
		r.mu.Unlock()
		if stolen {
			r.pool.opts.Metrics.cell("stolen")
		}
	}()
	for i := range r.states {
		s := &r.states[i]
		if s.done {
			continue
		}
		takeover := s.claimedBy == unclaimed &&
			(noFleet || s.attempts >= o.MaxAttempts || now.Sub(s.idleSince) > o.StealAfter)
		expired := s.claimedBy >= 0 && now.Sub(s.claimedAt) > o.StealAfter
		if takeover || expired {
			stolen = expired
			s.claimedBy = localClaim
			s.claimedAt = now
			return i, true
		}
	}
	return 0, false
}

// localLoop is the graceful-degradation executor: it runs cells in-process
// whenever the fleet cannot (empty, unhealthy, out of retries, or straggling
// past the steal deadline).
func (r *run) localLoop(ctx context.Context) {
	o := r.pool.opts
	for {
		if r.done(ctx) {
			return
		}
		idx, ok := r.claimLocal(time.Now())
		if !ok {
			// Poll at a fraction of the steal deadline so a straggler is
			// picked up promptly once it expires.
			if !r.waitChange(ctx, o.StealAfter/4) {
				return
			}
			continue
		}
		rows, err := r.cfg.Local(ctx, r.cells[idx])
		if err != nil {
			r.fail(idx, err)
			continue
		}
		r.complete(idx, rows, "local", false)
	}
}
