package experiments

import "repro/internal/runner"

// SweepJournal answers and records whole sweep cells by spec key, over a
// disk-backed result cache: the same store, entry format and fsync discipline
// as -cache-dir.
//
// Deprecated: a sweep run with a disk-backed SweepOptions.Cache
// (runner.NewDiskCache, gdpsim -cache-dir) is already crash-safe and
// resumable.
type SweepJournal struct{ store *runner.Cache }

// OpenSweepJournal opens (creating if needed) the store directory at path.
// resume is ignored: recorded cells are always recalled.
//
// Deprecated: use runner.NewDiskCache(path) as SweepOptions.Cache.
func OpenSweepJournal(path string, resume bool) (*SweepJournal, error) {
	store, err := runner.NewDiskCache(path)
	if err != nil {
		return nil, err
	}
	return &SweepJournal{store: store}, nil
}

// Lookup returns the rows recorded for key.
func (j *SweepJournal) Lookup(key string) ([]SweepRow, bool) {
	return runner.Lookup[[]SweepRow](j.store, key)
}

// Record stores a completed cell unless the store already holds its key, so
// a sweep's completion pass rewrites nothing.
func (j *SweepJournal) Record(key, label string, rows []SweepRow) error {
	if _, ok := j.Lookup(key); !ok {
		j.store.Put(key, rows)
	}
	return nil
}

// WriteErrors reports zero: a failed disk write is silent, as for every
// disk-cache entry, and costs one recompute on the next run.
func (j *SweepJournal) WriteErrors() (int, error) { return 0, nil }

// Close releases nothing: the store holds no open file.
func (j *SweepJournal) Close() error { return nil }
