package gdp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// partialSweep is dispatchTestSweep cut down to its PRB-16 cells: what a
// sweep killed halfway through the grid leaves in its cache directory.
func partialSweep() SweepOptions {
	opts := dispatchTestSweep()
	opts.PRBSizes = []int{16}
	return opts
}

// diskEngine builds an Engine over a disk-backed cache in dir.
func diskEngine(t *testing.T, dir string, opts ...EngineOption) *Engine {
	t.Helper()
	cache, err := NewDiskResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(append([]EngineOption{WithScale(dispatchTestScale()), WithCache(cache)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// simRuns reads reg's gdpsim_sim_runs_total series: how many shared-mode
// simulations ran.
func simRuns(t testing.TB, reg *telemetry.Registry) uint64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name == "gdpsim_sim_runs_total" {
			return uint64(*f.Series[0].Value)
		}
	}
	t.Fatal("no gdpsim_sim_runs_total series")
	return 0
}

// checkResumed asserts what a rerun over a killed sweep's cache directory
// owes: rows byte-identical to a fresh memory-only run, a shared-mode
// simulation for exactly the missing cells, and a disk hit for every
// recalled one.
func checkResumed(t *testing.T, want string, res *SweepResult, recalled int, resumed *Engine, runs uint64) {
	t.Helper()
	if got := rowsJSON(t, res.Rows); got != want {
		t.Errorf("resumed rows differ from a fresh run:\n got %s\nwant %s", got, want)
	}
	if missing := uint64(res.Cells - recalled); runs != missing {
		t.Errorf("resumed sweep ran %d simulations, want one per missing cell (%d)", runs, missing)
	}
	if hits := resumed.Cache().DetailedStats().DiskHits; hits < int64(recalled) {
		t.Errorf("resumed sweep had %d disk hits, want at least the %d recalled cells", hits, recalled)
	}
}

// TestSweepCacheDirResumeByteIdentical is the crash-recovery acceptance
// check: a sweep that finished only part of its grid, rerun in full on a new
// engine over the same cache directory, simulates only the missing cells
// and matches an uninterrupted run byte for byte, at jobs=1 and jobs=8.
func TestSweepCacheDirResumeByteIdentical(t *testing.T) {
	want := localSweepRows(t)
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			dir := t.TempDir()
			part, err := diskEngine(t, dir, WithJobs(jobs)).Sweep(t.Context(), partialSweep())
			if err != nil {
				t.Fatal(err)
			}
			resumed := diskEngine(t, dir, WithJobs(jobs))
			res, err := resumed.Sweep(t.Context(), dispatchTestSweep())
			if err != nil {
				t.Fatal(err)
			}
			checkResumed(t, want, res, part.Cells, resumed, simRuns(t, resumed.registry))
			// The missing cells share their workloads with the recalled ones,
			// so their private-mode references come from disk too: the only
			// cache misses are the missing cells themselves.
			if misses, missing := resumed.Cache().DetailedStats().Misses, res.Cells-part.Cells; misses != int64(missing) {
				t.Errorf("resumed sweep had %d cache misses, want only the %d missing cells", misses, missing)
			}
		})
	}
}

// TestSweepCacheDirCancelledResume stands in for a SIGKILL mid-sweep: the
// sweep's Progress callback cancels it after its second finished cell, and a
// rerun on a new engine over the same cache directory recalls every cell that
// finished, simulates only the rest and matches an uninterrupted run byte for
// byte, at jobs=1 and jobs=8.
func TestSweepCacheDirCancelledResume(t *testing.T) {
	want := localSweepRows(t)
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(t.Context())
			defer cancel()
			finished := 0 // the pool serializes Progress calls
			killed := diskEngine(t, dir, WithJobs(jobs), WithProgress(func(p RunnerProgress) {
				finished++
				if p.Done == 2 {
					cancel()
				}
			}))
			if _, err := killed.Sweep(ctx, dispatchTestSweep()); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
			}
			// One worker stops at the cancel; eight may finish cells already
			// in flight, and each of those is on disk too.
			if jobs == 1 && finished != 2 {
				t.Errorf("serial sweep finished %d cells after a cancel at the second", finished)
			}
			resumed := diskEngine(t, dir, WithJobs(jobs))
			res, err := resumed.Sweep(t.Context(), dispatchTestSweep())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d of %d cells finished before the cancel took hold", finished, res.Cells)
			checkResumed(t, want, res, finished, resumed, simRuns(t, resumed.registry))
		})
	}
}

// TestSweepJournalResumeByteIdentical pins the deprecated journal shim that
// the benchmark ledger still drives: a sweep that recorded only part of its
// grid, resumed on a fresh engine (empty memory cache, so the journal alone
// carries the recorded cells), simulates only the missing cells and matches
// an uninterrupted run byte for byte, at jobs=1 and jobs=8.
func TestSweepJournalResumeByteIdentical(t *testing.T) {
	want := localSweepRows(t)
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.journal")
			sweep := func(opts SweepOptions) (*Engine, *SweepResult) {
				t.Helper()
				engine, err := NewEngine(WithScale(dispatchTestScale()), WithJobs(jobs))
				if err != nil {
					t.Fatal(err)
				}
				jnl, err := experiments.OpenSweepJournal(path, true)
				if err != nil {
					t.Fatal(err)
				}
				defer jnl.Close()
				opts.Jobs = jobs
				opts.Journal = jnl
				res, err := engine.Sweep(t.Context(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if n, lastErr := jnl.WriteErrors(); n != 0 {
					t.Errorf("journal had %d write errors (last: %v)", n, lastErr)
				}
				return engine, res
			}
			_, part := sweep(partialSweep())
			resumed, res := sweep(dispatchTestSweep())
			if got := rowsJSON(t, res.Rows); got != want {
				t.Errorf("resumed rows differ from uninterrupted run:\n got %s\nwant %s", got, want)
			}
			if runs, missing := simRuns(t, resumed.registry), uint64(res.Cells-part.Cells); runs != missing {
				t.Errorf("resumed sweep ran %d simulations, want one per missing cell (%d)", runs, missing)
			}
		})
	}
}

// TestSweepWorkersCacheDirResume covers the fleet path: the front's disk
// cache answers the cells a first fleet sweep finished, and only the missing
// cells reach the worker (or the local fallback).
func TestSweepWorkersCacheDirResume(t *testing.T) {
	want := localSweepRows(t)
	dir := t.TempDir()

	w1, _ := newWorker(t)
	part, err := diskEngine(t, dir).SweepWorkers(t.Context(), partialSweep(), []string{w1.URL})
	if err != nil {
		t.Fatal(err)
	}

	w2, srv2 := newWorker(t)
	resumed := diskEngine(t, dir)
	res, err := resumed.SweepWorkers(t.Context(), dispatchTestSweep(), []string{w2.URL})
	if err != nil {
		t.Fatal(err)
	}
	checkResumed(t, want, res, part.Cells, resumed, simRuns(t, resumed.registry)+simRuns(t, srv2.engine.registry))
}

// TestSweepWorkersRejectsJournal: the deprecated journal is a local-sweep
// shim only; a fleet sweep resumes from its disk cache.
func TestSweepWorkersRejectsJournal(t *testing.T) {
	jnl, err := experiments.OpenSweepJournal(filepath.Join(t.TempDir(), "sweep.journal"), false)
	if err != nil {
		t.Fatal(err)
	}
	opts := dispatchTestSweep()
	opts.Journal = jnl
	if _, err := newTestEngine(t).SweepWorkers(t.Context(), opts, []string{"http://127.0.0.1:1"}); err == nil {
		t.Error("SweepWorkers accepted a journal")
	}
}

// TestWorkerCellPanicRetryable is the hardening acceptance check: a panic
// inside a worker's cell execution must not kill the worker — the cell comes
// back as a retryable failure, the dispatcher retries it, and the sweep
// finishes with byte-identical rows. The worker's metrics record the panic.
func TestWorkerCellPanicRetryable(t *testing.T) {
	want := localSweepRows(t)

	worker, err := NewEngine(WithScale(dispatchTestScale()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(worker)
	if err != nil {
		t.Fatal(err)
	}
	var panics atomic.Int64
	srv.runCell = func(c experiments.Cell, ctx context.Context, cfg experiments.CellConfig) ([]SweepRow, error) {
		if panics.Add(1) == 1 {
			panic("first cell execution panics")
		}
		return c.Run(ctx, cfg)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	engine, err := NewEngine(WithScale(dispatchTestScale()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SweepWorkers(t.Context(), dispatchTestSweep(), []string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsJSON(t, res.Rows); got != want {
		t.Errorf("rows after a cell panic differ from clean run:\n got %s\nwant %s", got, want)
	}

	// The worker survived (it just served the rest of the grid) and accounted
	// the panic in its outcome counter.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if metrics := string(raw); !strings.Contains(metrics, `gdpsim_dispatch_served_cells_total{outcome="panic"} 1`) {
		t.Errorf("worker metrics missing the panic outcome:\n%s", metrics)
	}
}
