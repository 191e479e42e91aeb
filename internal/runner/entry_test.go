package runner_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// FuzzDiskCacheEntry places arbitrary bytes at a key's sharded path, as bit
// rot, a torn write, an entry of an older format or a foreign file would, and
// reads them as sweep rows, the type with a binary codec. Lookup must either
// return rows that round-trip through a new entry, or report a miss, count one
// corruption and remove the file. It must never panic, and the key must work
// normally afterwards. Durability is not under test here, so its caches skip
// the fsyncs, every input reuses one directory, and the files the test writes
// itself never replace older ones: an fsync per write, a directory created
// and removed per input and the flush ext4 makes when a file replaces another
// would spend most of the budget in the file system instead of in the
// decoder.
func FuzzDiskCacheEntry(f *testing.F) {
	rows := []experiments.SweepRow{
		{Cores: 2, Mix: "H", PRB: 16, Kind: "accuracy", Name: "GDP", MeanIPCAbsRMS: 0.031, MeanIPCRelRMS: 0.045, MeanStallAbsRMS: 1234.5},
		{Cores: 2, Mix: "H", Kind: "partitioning", Name: "MCP", AverageSTP: 1.75},
	}
	legacy, err := json.Marshal(rows)
	if err != nil {
		f.Fatal(err)
	}
	// A value without a codec is framed as JSON; these maps decode as rows.
	var asMaps []map[string]any
	if err := json.Unmarshal(legacy, &asMaps); err != nil {
		f.Fatal(err)
	}
	for _, raw := range [][]byte{entryBytes(f, rows), entryBytes(f, asMaps), legacy} {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})

	key, err := runner.SpecKey("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir() // one per fuzzing process; inputs run one at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := runner.NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		runner.FastFiles(c)
		p := runner.EntryPath(c, key)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		os.Remove(p) // a new file: ext4 flushes one that replaces another
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}

		got, ok := runner.Lookup[[]experiments.SweepRow](c, key)
		corrupt := c.DetailedStats().DiskCorruptions
		if ok {
			// Zero rows come back nil from the binary payload but may be
			// an empty slice from a JSON one.
			again := recall(t, dir, got)
			if len(got)+len(again) != 0 && !reflect.DeepEqual(again, got) {
				t.Fatalf("decoded entry %+v does not round-trip: %+v", got, again)
			}
			if corrupt != 0 {
				t.Fatalf("a hit counted %d corruptions", corrupt)
			}
		} else {
			if corrupt != 1 {
				t.Fatalf("a miss on a present file counted %d corruptions, want 1", corrupt)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not removed (stat: %v)", err)
			}
		}

		want := []experiments.SweepRow{{Cores: 4, Mix: "after", Kind: "scenario", Name: "ITCA", MeanIPCRelRMS: 7}}
		c.Put(key, want)
		fresh, err := runner.NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := runner.Lookup[[]experiments.SweepRow](fresh, key); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("after Put, a new cache reads %+v (hit %v), want %+v", got, ok, want)
		}
	})
}

// TestBinaryEntryNeedsItsCodec: a binary entry read as a type without a
// codec (another type's entry under the key) is a corrupt entry, not a
// decode error and not a zero value.
func TestBinaryEntryNeedsItsCodec(t *testing.T) {
	dir := t.TempDir()
	c, err := runner.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("rows", []experiments.SweepRow{{Cores: 2, Mix: "H", Kind: "accuracy", Name: "GDP"}})
	fresh, err := runner.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := runner.Lookup[[]string](fresh, "rows"); ok {
		t.Fatalf("sweep rows read as %q", got)
	}
	if n := fresh.DetailedStats().DiskCorruptions; n != 1 {
		t.Fatalf("DiskCorruptions = %d, want 1", n)
	}
	if _, err := os.Stat(runner.EntryPath(fresh, "rows")); !os.IsNotExist(err) {
		t.Fatalf("entry not removed (stat: %v)", err)
	}
}

// entryBytes is the disk entry a cache writes for v.
func entryBytes(tb testing.TB, v any) []byte {
	tb.Helper()
	c, err := runner.NewDiskCache(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	c.Put("seed", v)
	raw, err := os.ReadFile(runner.EntryPath(c, "seed"))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// recall writes rows through a disk cache in dir (without fsyncs) and reads
// them back with a new one.
func recall(t *testing.T, dir string, rows []experiments.SweepRow) []experiments.SweepRow {
	t.Helper()
	c, err := runner.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner.FastFiles(c)
	c.Put("recall", rows)
	fresh, err := runner.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := runner.Lookup[[]experiments.SweepRow](fresh, "recall")
	os.Remove(runner.EntryPath(fresh, "recall"))
	if !ok {
		t.Fatalf("rows %+v did not survive a disk round-trip", rows)
	}
	return got
}
