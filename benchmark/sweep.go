package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	gdp "repro"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// recallPairsPerRound is the number of warm-restart pairs (one restart from
// the disk cache, one from the journal) in a sweep_recall round.
const recallPairsPerRound = 300

// rowsDigest is the sha256 over the canonical JSON of sweep rows.
func rowsDigest(rows []gdp.SweepRow) string {
	raw, _ := json.Marshal(rows) // SweepRow is plain data: Marshal cannot fail
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// checkRows applies the sanity checks every sweep row must pass.
func checkRows(rows []gdp.SweepRow) string {
	for _, r := range rows {
		for _, v := range []float64{r.MeanIPCAbsRMS, r.MeanIPCRelRMS, r.MeanStallAbsRMS, r.AverageSTP} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Sprintf("row %s/%dc/%s/%s holds a non-finite value", r.Kind, r.Cores, r.Mix, r.Name)
			}
		}
		if r.Kind == experiments.CellKindPartitioning && !(r.AverageSTP > 0) {
			return fmt.Sprintf("partitioning row %dc/%s/%s reports STP %v", r.Cores, r.Mix, r.Name, r.AverageSTP)
		}
	}
	return ""
}

// gdpoError is the mean GDP-O relative IPC error (%) over the accuracy rows.
func gdpoError(rows []gdp.SweepRow) float64 {
	var sum float64
	n := 0
	for _, r := range rows {
		if r.Kind == experiments.CellKindAccuracy && r.Name == "GDP-O" {
			sum += r.MeanIPCRelRMS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// cellLatencies reconstructs per-cell latencies from the sweep's progress
// events. The pool hands cells out in enumeration order and a worker takes
// its next cell right after reporting the previous one, so cell i (beyond the
// first `jobs`) started when completion number i-jobs was reported.
func cellLatencies(labels []string, events []runner.Progress, jobs int) []float64 {
	index := make(map[string]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	out := make([]float64, 0, len(events))
	for _, ev := range events {
		i, ok := index[ev.Label]
		if !ok {
			continue
		}
		var start float64
		if k := i - jobs; k >= 0 && k < len(events) {
			start = events[k].Elapsed.Seconds()
		}
		out = append(out, math.Max(ev.Elapsed.Seconds()-start, 0)*1e3)
	}
	return out
}

// sweepStore is one cache directory plus journal file under a fixture's base.
type sweepStore struct{ dir string }

func (s sweepStore) cacheDir() string    { return filepath.Join(s.dir, "cache") }
func (s sweepStore) journalPath() string { return filepath.Join(s.dir, "sweep.journal") }

// coldSweep runs the grid once through Engine.Sweep on a fresh disk cache and
// journal in store, at the given pool width.
func coldSweep(ctx context.Context, grid gdp.SweepOptions, store sweepStore, jobs int) (*gdp.SweepResult, counts, []runner.Progress, error) {
	cache, err := gdp.NewDiskResultCache(store.cacheDir())
	if err != nil {
		return nil, nil, nil, err
	}
	engine, err := gdp.NewEngine(gdp.WithCache(cache), gdp.WithJobs(jobs))
	if err != nil {
		return nil, nil, nil, err
	}
	journal, err := experiments.OpenSweepJournal(store.journalPath(), false)
	if err != nil {
		return nil, nil, nil, err
	}
	var mu sync.Mutex
	var events []runner.Progress
	grid.Journal = journal
	grid.Progress = func(p runner.Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}
	res, err := engine.Sweep(ctx, grid)
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if n, werr := journal.WriteErrors(); n > 0 {
		return nil, nil, nil, fmt.Errorf("journal: %d failed appends: %w", n, werr)
	}
	return res, engineCounts(engine), events, nil
}

// sweepColdFixture drives sweep_cold: every round is the whole grid on a
// fresh cache directory and journal.
type sweepColdFixture struct {
	base    string
	jobs    int
	grid    gdp.SweepOptions
	labels  []string
	rounds  int
	pending []string // directories to remove between rounds
	rows    []gdp.SweepRow
}

func newSweepColdFixture(_ context.Context, e env) (fixture, error) {
	base, err := os.MkdirTemp(e.dir, "sweep-cold-")
	if err != nil {
		return nil, err
	}
	f := &sweepColdFixture{base: base, jobs: e.clients, grid: sweepGrid(e.seed)}
	for _, c := range experiments.EnumerateSweepCells(f.grid) {
		f.labels = append(f.labels, c.Label())
	}
	if len(f.labels) != sweepCells {
		return nil, fmt.Errorf("sweep grid enumerates %d cells, the benchmark froze %d", len(f.labels), sweepCells)
	}
	return f, nil
}

func (f *sweepColdFixture) nextStore() sweepStore {
	f.rounds++
	dir := filepath.Join(f.base, fmt.Sprintf("round-%d", f.rounds))
	f.pending = append(f.pending, dir)
	return sweepStore{dir}
}

func (f *sweepColdFixture) round(ctx context.Context, rec *spanRecorder) (*roundOut, error) {
	store := f.nextStore()
	if rec != nil {
		return f.walk(ctx, rec, store)
	}
	res, c, events, err := coldSweep(ctx, f.grid, store, f.jobs)
	if err != nil {
		return nil, err
	}
	out := &roundOut{ops: res.Cells, latenciesMS: cellLatencies(f.labels, events, f.jobs), counts: c}
	f.finish(out, res.Rows)
	return out, nil
}

// finish fills the parts of a round's outcome that only depend on its rows.
func (f *sweepColdFixture) finish(out *roundOut, rows []gdp.SweepRow) {
	out.cycles = uint64(out.counts["sim_cycles"])
	out.digest = rowsDigest(rows)
	out.exact = exactCounts(out.counts, true)
	out.exact["est_err_gdpo_pct"] = gdpoError(rows)
	spanSimCounts(out, out.counts)
	if bad := checkRows(rows); bad != "" {
		out.failed = out.ops
		out.violations = append(out.violations, bad)
	}
	f.rows = rows
}

// walk is the traced round: the benchmark enumerates the grid itself and
// visits the cells one by one, with one span around each call into a layer —
// spec key, cache lookup, cell execution, cache store, journal append.
func (f *sweepColdFixture) walk(ctx context.Context, rec *spanRecorder, store sweepStore) (*roundOut, error) {
	cache, err := gdp.NewDiskResultCache(store.cacheDir())
	if err != nil {
		return nil, err
	}
	engine, err := gdp.NewEngine(gdp.WithCache(cache))
	if err != nil {
		return nil, err
	}
	journal, err := experiments.OpenSweepJournal(store.journalPath(), false)
	if err != nil {
		return nil, err
	}
	defer journal.Close()
	cfg := experiments.CellConfig{Cache: cache, Instr: engine.Scale().Instr}
	var cells []experiments.Cell
	rec.time(0, 0, "experiments.enumerate", func(int) { cells = experiments.EnumerateSweepCells(f.grid) })
	out := &roundOut{ops: len(cells)}
	var all []gdp.SweepRow
	for i, cell := range cells {
		opID := i + 1
		spanID, end := rec.begin(opID, 0, "op.cell")
		start := nowNS()
		var key string
		rec.time(opID, spanID, "runner.speckey", func(int) { key, err = runner.SpecKey(cell.Spec()) })
		if err != nil {
			return nil, err
		}
		var rows []gdp.SweepRow
		var hit bool
		rec.time(opID, spanID, "runner.lookup", func(int) { rows, hit = runner.Lookup[[]gdp.SweepRow](cache, key) })
		if !hit {
			t0 := nowNS()
			rec.time(opID, spanID, "experiments.cell_run."+cell.Kind, func(int) { rows, err = cell.Run(ctx, cfg) })
			out.simNS += nowNS() - t0
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", cell.Label(), err)
			}
			rec.time(opID, spanID, "runner.store", func(int) { cache.Put(key, rows) })
		}
		rec.time(opID, spanID, "journal.record", func(int) { err = journal.Record(key, cell.Label(), rows) })
		if err != nil {
			return nil, fmt.Errorf("cell %s: journal: %w", cell.Label(), err)
		}
		out.latenciesMS = append(out.latenciesMS, float64(nowNS()-start)/1e6)
		end()
		all = append(all, rows...)
	}
	out.counts = engineCounts(engine)
	f.finish(out, all)
	return out, nil
}

func (f *sweepColdFixture) idle() {
	for _, dir := range f.pending {
		os.RemoveAll(dir)
	}
	f.pending = nil
}

// verify reruns the grid serially on a memory-only cache: the rows must not
// depend on the pool width, the disk tier or the journal.
func (f *sweepColdFixture) verify(ctx context.Context) []string {
	engine, err := gdp.NewEngine(gdp.WithJobs(1))
	if err != nil {
		return []string{err.Error()}
	}
	res, err := engine.Sweep(ctx, f.grid)
	if err != nil {
		return []string{"jobs=1 sweep: " + err.Error()}
	}
	if rowsDigest(res.Rows) != rowsDigest(f.rows) {
		return []string{fmt.Sprintf("rows at jobs=%d differ from a jobs=1 run on a memory-only cache", f.jobs)}
	}
	return nil
}

func (f *sweepColdFixture) opCounts() map[string]int { return sweepOpCounts(f.jobs, sweepCells) }

func sweepOpCounts(jobs, opsPerRound int) map[string]int {
	return map[string]int{
		"ops_per_round": opsPerRound, "cells": sweepCells, "jobs": jobs, "clients": 1,
		"instructions_per_core": sweepInstructions, "interval_cycles": sweepInterval, "warmup_intervals": sweepWarmup,
	}
}

func (f *sweepColdFixture) close() { os.RemoveAll(f.base) }

// sweepRecallFixture drives sweep_recall. Set-up populates one cache
// directory and one complete journal with the sweep_cold grid; an operation
// is one recalled cell, and a round is recallPairsPerRound pairs of warm
// restarts of the whole grid: (a) a new disk cache object and engine over the
// directory (every cell a disk hit), then (b) the journal reopened with
// resume over an empty memory cache (every cell a journal hit).
type sweepRecallFixture struct {
	store sweepStore
	jobs  int
	grid  gdp.SweepOptions
	// coldRows and coldCycles are what the populating run produced and
	// simulated: every recall must return the former, and delivers the
	// results of the latter without simulating anything.
	coldRows   []gdp.SweepRow
	coldCycles uint64
	coldDigest string
}

func newSweepRecallFixture(ctx context.Context, e env) (fixture, error) {
	base, err := os.MkdirTemp(e.dir, "sweep-recall-")
	if err != nil {
		return nil, err
	}
	f := &sweepRecallFixture{store: sweepStore{base}, jobs: e.clients, grid: sweepGrid(e.seed)}
	res, c, _, err := coldSweep(ctx, f.grid, f.store, f.jobs)
	if err != nil {
		os.RemoveAll(base)
		return nil, fmt.Errorf("populate: %w", err)
	}
	f.coldRows, f.coldCycles, f.coldDigest = res.Rows, uint64(c["sim_cycles"]), rowsDigest(res.Rows)
	return f, nil
}

// fromDisk is restart (a): everything the process knew is gone except the
// cache directory.
func (f *sweepRecallFixture) fromDisk(ctx context.Context) (*gdp.SweepResult, counts, error) {
	cache, err := gdp.NewDiskResultCache(f.store.cacheDir())
	if err != nil {
		return nil, nil, err
	}
	engine, err := gdp.NewEngine(gdp.WithCache(cache), gdp.WithJobs(f.jobs))
	if err != nil {
		return nil, nil, err
	}
	res, err := engine.Sweep(ctx, f.grid)
	return res, engineCounts(engine), err
}

// fromJournal is restart (b): only the journal survived.
func (f *sweepRecallFixture) fromJournal(ctx context.Context) (*gdp.SweepResult, counts, error) {
	journal, err := experiments.OpenSweepJournal(f.store.journalPath(), true)
	if err != nil {
		return nil, nil, err
	}
	defer journal.Close()
	engine, err := gdp.NewEngine(gdp.WithJobs(f.jobs))
	if err != nil {
		return nil, nil, err
	}
	grid := f.grid
	grid.Journal = journal
	res, err := engine.Sweep(ctx, grid)
	return res, engineCounts(engine), err
}

func (f *sweepRecallFixture) round(ctx context.Context, rec *spanRecorder) (*roundOut, error) {
	if rec != nil {
		return f.walk(ctx, rec)
	}
	out := &roundOut{counts: counts{}}
	for p := 0; p < recallPairsPerRound; p++ {
		start := nowNS()
		for _, restart := range []func(context.Context) (*gdp.SweepResult, counts, error){f.fromDisk, f.fromJournal} {
			res, c, err := restart(ctx)
			if err != nil {
				return nil, err
			}
			out.counts.add(c)
			f.account(out, res.Rows, res.Cells)
		}
		// One sample per pair, as the latency of one of its cells: the two
		// restarts cost differently, and sampling them apart would put the
		// median on the boundary between the two.
		out.latenciesMS = append(out.latenciesMS, float64(nowNS()-start)/1e6/float64(2*sweepCells))
	}
	f.finish(out)
	return out, nil
}

// account books one recalled grid.
func (f *sweepRecallFixture) account(out *roundOut, rows []gdp.SweepRow, cells int) {
	out.ops += cells
	out.cycles += f.coldCycles
	if rowsDigest(rows) != f.coldDigest {
		out.failed += cells
		out.violations = append(out.violations, "recalled rows differ from the rows of the populating sweep_cold run")
	}
}

func (f *sweepRecallFixture) finish(out *roundOut) {
	out.digest = f.coldDigest
	out.exact = exactCounts(out.counts, true)
	out.exact["est_err_gdpo_pct"] = gdpoError(f.coldRows)
	if runs := out.counts["sim_runs"]; runs != 0 {
		out.failed = out.ops
		out.violations = append(out.violations, fmt.Sprintf("sweep_recall ran %v simulations, declared 0", runs))
	}
	spanSimCounts(out, out.counts)
}

// walk is the traced round: one restart pair, visited cell by cell. On the
// disk path each cell is a spec key and a cache lookup; on the journal path
// the journal is opened once (load + CRC check + decode) and each cell is a
// spec key and a journal lookup.
func (f *sweepRecallFixture) walk(ctx context.Context, rec *spanRecorder) (*roundOut, error) {
	out := &roundOut{counts: counts{}}
	cells := experiments.EnumerateSweepCells(f.grid)
	var err error

	var cache *gdp.ResultCache
	var engine *gdp.Engine
	rec.time(0, 0, "runner.open_disk_cache", func(int) { cache, err = gdp.NewDiskResultCache(f.store.cacheDir()) })
	if err != nil {
		return nil, err
	}
	rec.time(0, 0, "engine.new", func(int) { engine, err = gdp.NewEngine(gdp.WithCache(cache)) })
	if err != nil {
		return nil, err
	}
	var diskRows []gdp.SweepRow
	for i, cell := range cells {
		opID := i + 1
		spanID, end := rec.begin(opID, 0, "op.recall_disk")
		var key string
		rec.time(opID, spanID, "runner.speckey", func(int) { key, err = runner.SpecKey(cell.Spec()) })
		var rows []gdp.SweepRow
		var hit bool
		rec.time(opID, spanID, "runner.lookup_disk", func(int) { rows, hit = runner.Lookup[[]gdp.SweepRow](cache, key) })
		end()
		if err != nil || !hit {
			return nil, fmt.Errorf("cell %s: not in the populated disk cache (%v)", cell.Label(), err)
		}
		diskRows = append(diskRows, rows...)
	}
	out.counts.add(engineCounts(engine))
	f.account(out, diskRows, len(cells))

	var journal *experiments.SweepJournal
	rec.time(0, 0, "journal.open_resume", func(int) { journal, err = experiments.OpenSweepJournal(f.store.journalPath(), true) })
	if err != nil {
		return nil, err
	}
	defer journal.Close()
	var journalRows []gdp.SweepRow
	for i, cell := range cells {
		opID := len(cells) + i + 1
		spanID, end := rec.begin(opID, 0, "op.recall_journal")
		var key string
		rec.time(opID, spanID, "runner.speckey", func(int) { key, err = runner.SpecKey(cell.Spec()) })
		var rows []gdp.SweepRow
		var hit bool
		rec.time(opID, spanID, "journal.lookup", func(int) { rows, hit = journal.Lookup(key) })
		end()
		if err != nil || !hit {
			return nil, fmt.Errorf("cell %s: not in the populated journal (%v)", cell.Label(), err)
		}
		journalRows = append(journalRows, rows...)
	}
	f.account(out, journalRows, len(cells))
	f.finish(out)
	return out, nil
}

func (f *sweepRecallFixture) idle() {}

func (f *sweepRecallFixture) verify(context.Context) []string {
	if bad := checkRows(f.coldRows); bad != "" {
		return []string{bad}
	}
	return nil
}

func (f *sweepRecallFixture) opCounts() map[string]int {
	m := sweepOpCounts(f.jobs, 2*sweepCells*recallPairsPerRound)
	m["restart_pairs_per_round"] = recallPairsPerRound
	return m
}

func (f *sweepRecallFixture) close() { os.RemoveAll(f.store.dir) }
