package experiments

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/runner"
	"repro/internal/workload"
)

// journalTestOptions is a two-cell grid: the smallest sweep whose journal
// holds more than one entry.
func journalTestOptions() SweepOptions {
	return SweepOptions{
		CoreCounts:          []int{2},
		Mixes:               []workload.MixKind{workload.MixH},
		PRBSizes:            []int{16, 32},
		Techniques:          []string{"GDP"},
		Workloads:           1,
		InstructionsPerCore: 3000,
		IntervalCycles:      2000,
		Seed:                7,
	}
}

// TestSweepJournalRestartReadsEachEntryOnce: a restart over a populated
// journal reads each cell's entry once, from disk, inside the cell's job; the
// pass after the pool looks none of them up again (no memory hits).
func TestSweepJournalRestartReadsEachEntryOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	sweepWithJournal(t, path, runner.NewCache())

	jnl, res := sweepWithJournal(t, path, runner.NewCache())
	s := jnl.store.DetailedStats()
	if s.DiskHits != int64(res.Cells) || s.MemoryHits != 0 || s.Misses != 0 {
		t.Fatalf("journal store: %d disk hits, %d memory hits, %d misses; want %d, 0, 0",
			s.DiskHits, s.MemoryHits, s.Misses, res.Cells)
	}
}

// TestSweepJournalRecordsCacheAnsweredCells: cells the result cache answers
// never run their job, and still end up in the journal.
func TestSweepJournalRecordsCacheAnsweredCells(t *testing.T) {
	opts := journalTestOptions()
	opts.Cache = runner.NewCache()
	if _, err := Sweep(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	hits, misses := opts.Cache.Stats()
	path := filepath.Join(t.TempDir(), "journal")
	_, res := sweepWithJournal(t, path, opts.Cache)
	if h, m := opts.Cache.Stats(); h-hits != int64(res.Cells) || m != misses {
		t.Fatalf("result cache: %d new hits, %d new misses; want %d and 0 (every cell answered by the warm cache)", h-hits, m-misses, res.Cells)
	}

	reopened, err := OpenSweepJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range EnumerateSweepCells(journalTestOptions()) {
		key, err := runner.SpecKey(cell.Spec())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := reopened.Lookup(key); !ok {
			t.Errorf("cell %s is not in the journal", cell.Label())
		}
	}
}

// sweepWithJournal runs journalTestOptions over cache with the journal at
// path opened afresh.
func sweepWithJournal(t *testing.T, path string, cache *runner.Cache) (*SweepJournal, *SweepResult) {
	t.Helper()
	jnl, err := OpenSweepJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	opts := journalTestOptions()
	opts.Cache, opts.Journal = cache, jnl
	res, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return jnl, res
}
