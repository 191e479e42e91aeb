// Package runner is the experiment-orchestration subsystem of the
// reproduction. Every table and figure of the paper decomposes into a grid of
// independent simulation cells (workload × core count × technique × mode);
// the runner fans such grids out over a bounded worker pool and collects the
// results deterministically, so that the output of a study is byte-identical
// regardless of how many workers executed it.
//
// The package provides three cooperating pieces:
//
//   - Job / Run: a unit of work with an optional hashable spec, executed by a
//     pool of Workers goroutines with context-based cancellation. Results are
//     collected by job index, never by completion order.
//   - Cache: a content-addressed result cache (in-memory, optionally spilled
//     to disk) keyed by a hash of the job spec, with in-flight deduplication
//     so identical cells submitted concurrently are simulated once.
//   - Table / WriteJSON / WriteCSV: structured export of aggregated results.
//
// The experiment drivers in internal/experiments submit all their simulation
// work through this package; cmd/gdpsim exposes the pool width as -jobs.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Job is one unit of work: typically a single simulation cell. The type
// parameter is the job's result type.
type Job[T any] struct {
	// Label identifies the job in progress reports and error messages.
	Label string
	// Spec, when non-nil and a Cache is attached to the pool, enables result
	// caching: it must be a JSON-marshalable value that fully determines the
	// job's output (see SpecKey). A spec that does not marshal fails its job.
	Spec any
	// Fn computes the result. It should honor ctx cancellation where it can
	// (a job that ignores ctx delays shutdown until it returns) and must not
	// depend on shared mutable state, because jobs run concurrently.
	Fn func(ctx context.Context) (T, error)
}

// Options configure one Run call.
type Options struct {
	// Workers is the pool width. Zero selects runtime.NumCPU(); one runs the
	// jobs serially (still through the pool, so behavior is identical).
	Workers int
	// Cache, when non-nil, memoizes the results of jobs that carry a Spec.
	Cache *Cache
	// Progress, when non-nil, receives one event per completed job.
	Progress ProgressFunc
	// Metrics, when non-nil, instruments the pool (queue depth, busy
	// workers, per-job wall-clock).
	Metrics *PoolMetrics
}

// workers resolves the effective pool width for n jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Progress is one progress event: job Done of Total just finished.
type Progress struct {
	Done     int
	Total    int
	Label    string
	CacheHit bool
	Elapsed  time.Duration
	// ETA estimates the remaining wall-clock time from the mean cost of the
	// jobs completed so far (zero until the first job finishes).
	ETA time.Duration
}

// ProgressFunc receives progress events. Calls are serialized by the pool.
type ProgressFunc func(Progress)

// ConsoleProgress returns a ProgressFunc that prints one line per completed
// job to w, suitable for a terminal's stderr.
func ConsoleProgress(w io.Writer) ProgressFunc {
	return func(p Progress) {
		hit := ""
		if p.CacheHit {
			hit = " (cached)"
		}
		fmt.Fprintf(w, "[%*d/%d] %s%s elapsed=%s eta=%s\n",
			len(fmt.Sprint(p.Total)), p.Done, p.Total, p.Label, hit,
			p.Elapsed.Round(time.Millisecond), p.ETA.Round(time.Millisecond))
	}
}

// Run executes the jobs on a worker pool and returns their results in job
// order. The slice layout is deterministic: results[i] always belongs to
// jobs[i], no matter how many workers ran or in which order jobs finished.
//
// On the first job error the pool cancels the remaining jobs and returns the
// lowest-index error among the jobs that actually failed (results are
// deterministic only for successful runs; fail-fast takes priority over a
// scheduling-independent error identity). If ctx is cancelled, Run returns
// ctx.Err().
func Run[T any](ctx context.Context, jobs []Job[T], opts Options) ([]T, error) {
	if len(jobs) == 0 {
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	ran := make([]bool, len(jobs))

	idxCh := make(chan int)
	opts.Metrics.enqueued(len(jobs))
	go func() {
		defer close(idxCh)
		sent := 0
		// Jobs never handed to a worker must leave the queue-depth gauge
		// balanced when the feeder exits on cancellation.
		defer func() { opts.Metrics.drained(len(jobs) - sent) }()
		for i := range jobs {
			select {
			case idxCh <- i:
				sent++
			case <-ctx.Done():
				return
			}
		}
	}()

	var (
		wg         sync.WaitGroup
		progressMu sync.Mutex
		done       int
		start      = time.Now()
	)
	report := func(label string, hit bool) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		elapsed := time.Since(start)
		var eta time.Duration
		if done > 0 && done < len(jobs) {
			eta = time.Duration(float64(elapsed) / float64(done) * float64(len(jobs)-done))
		}
		opts.Progress(Progress{
			Done: done, Total: len(jobs), Label: label, CacheHit: hit,
			Elapsed: elapsed, ETA: eta,
		})
	}

	for w := 0; w < opts.workers(len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if ctx.Err() != nil {
					opts.Metrics.drained(1)
					return
				}
				opts.Metrics.jobStarted()
				jobStart := time.Now()
				res, hit, err := runOne(ctx, jobs[i], opts.Cache)
				opts.Metrics.jobFinished(time.Since(jobStart), hit, err)
				results[i], errs[i], ran[i] = res, err, true
				if err != nil {
					cancel() // stop scheduling further jobs
					return
				}
				report(jobs[i].Label, hit)
			}
		}()
	}
	wg.Wait()

	// Deterministic error selection: the lowest-index job that failed for a
	// reason other than cancellation wins; otherwise surface cancellation.
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			if jobs[i].Label != "" {
				return nil, fmt.Errorf("runner: job %q: %w", jobs[i].Label, err)
			}
			return nil, fmt.Errorf("runner: job %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range ran {
		if !ran[i] {
			// Cannot happen without cancellation or an error, but guard the
			// invariant that a nil error implies a complete result slice.
			return nil, fmt.Errorf("runner: job %d was never executed", i)
		}
	}
	return results, nil
}

// runOne executes (or recalls) a single job. The job's spec is hashed here, in
// the worker, once: the key serves the lookup, the in-flight registration and
// the disk write, and hashing runs in parallel with other jobs' reads instead
// of holding every job until the whole grid is hashed.
func runOne[T any](ctx context.Context, job Job[T], cache *Cache) (T, bool, error) {
	if job.Spec == nil {
		res, err := job.Fn(ctx)
		return res, false, err
	}
	return MemoContext(ctx, cache, job.Spec, func() (T, error) { return job.Fn(ctx) })
}
