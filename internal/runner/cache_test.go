package runner

import (
	"os"
	"path/filepath"
	"testing"
)

type cachePayload struct {
	Label string `json:"label"`
	Value int    `json:"value"`
}

// mustMemo runs one Memo call and fails the test on error.
func mustMemo(t *testing.T, c *Cache, spec any, v cachePayload) (cachePayload, bool) {
	t.Helper()
	got, hit, err := Memo(c, spec, func() (cachePayload, error) { return v, nil })
	if err != nil {
		t.Fatalf("Memo: %v", err)
	}
	return got, hit
}

// corruptOnDisk mutates the persisted entry for spec with f and returns its
// path.
func corruptOnDisk(t *testing.T, c *Cache, spec any, f func([]byte) []byte) string {
	t.Helper()
	key, err := SpecKey(spec)
	if err != nil {
		t.Fatalf("SpecKey: %v", err)
	}
	p := c.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("read cached entry: %v", err)
	}
	if err := os.WriteFile(p, f(raw), 0o644); err != nil {
		t.Fatalf("write corrupted entry: %v", err)
	}
	return p
}

// TestCacheCorruptDiskEntryRecomputed bit-flips a cached file and asserts the
// next process-equivalent lookup (fresh memory layer, same directory) deletes
// the bad entry, recomputes the value, counts the corruption, and leaves a
// healthy entry behind — never a decode error.
func TestCacheCorruptDiskEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	spec := map[string]any{"op": "corrupt-test", "n": 1}
	want := cachePayload{Label: "x", Value: 42}

	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := mustMemo(t, c1, spec, want); hit {
		t.Fatal("first compute reported as cache hit")
	}

	// Flip the first byte, inside the frame's magic.
	corruptOnDisk(t, c1, spec, func(raw []byte) []byte {
		raw[0] ^= 0xff
		return raw
	})

	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, hit := mustMemo(t, c2, spec, want)
	if hit {
		t.Fatal("corrupt disk entry reported as cache hit")
	}
	if got != want {
		t.Fatalf("recomputed value = %+v, want %+v", got, want)
	}
	if s := c2.DetailedStats(); s.DiskCorruptions != 1 {
		t.Fatalf("DiskCorruptions = %d, want 1", s.DiskCorruptions)
	}

	// The recompute must have rewritten a healthy entry: a third fresh cache
	// hits disk.
	c3, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, hit = mustMemo(t, c3, spec, cachePayload{Label: "should-not-run", Value: -1})
	if !hit || got != want {
		t.Fatalf("after recompute: hit=%v got=%+v, want disk hit of %+v", hit, got, want)
	}
	if s := c3.DetailedStats(); s.DiskCorruptions != 0 {
		t.Fatalf("healthy entry counted as corruption: %d", s.DiskCorruptions)
	}
}

// TestCacheTruncatedDiskEntryRecomputed covers the torn-write shape: a file
// cut off mid-payload is deleted and recomputed.
func TestCacheTruncatedDiskEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	spec := map[string]any{"op": "truncate-test"}
	want := cachePayload{Label: "y", Value: 7}

	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustMemo(t, c1, spec, want)
	p := corruptOnDisk(t, c1, spec, func(raw []byte) []byte { return raw[:len(raw)/2] })

	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, hit := mustMemo(t, c2, spec, want)
	if hit || got != want {
		t.Fatalf("truncated entry: hit=%v got=%+v, want recompute of %+v", hit, got, want)
	}
	if s := c2.DetailedStats(); s.DiskCorruptions != 1 {
		t.Fatalf("DiskCorruptions = %d, want 1", s.DiskCorruptions)
	}
	if _, err := os.Stat(p); err == nil {
		// removeCorrupt deleted it; the recompute then rewrote it. Either way
		// the content must now decode.
		c3, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, hit := mustMemo(t, c3, spec, want); !hit || got != want {
			t.Fatalf("rewritten entry unreadable: hit=%v got=%+v", hit, got)
		}
	}
}

// TestCacheLookupPut pins the dispatcher-facing API: Put persists to both
// layers, Lookup reads memory then disk without counting a miss, and a
// corrupt entry is deleted rather than returned.
func TestCacheLookupPut(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := SpecKey(map[string]any{"op": "lookup-put"})
	if err != nil {
		t.Fatal(err)
	}
	want := cachePayload{Label: "z", Value: 3}
	c1.Put(key, want)

	if got, ok := Lookup[cachePayload](c1, key); !ok || got != want {
		t.Fatalf("memory Lookup = %+v, %v; want %+v, true", got, ok, want)
	}

	// A fresh cache over the same directory finds it on disk and promotes it.
	c2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := Lookup[cachePayload](c2, key); !ok || got != want {
		t.Fatalf("disk Lookup = %+v, %v; want %+v, true", got, ok, want)
	}
	if s := c2.DetailedStats(); s.DiskHits != 1 || s.Misses != 0 {
		t.Fatalf("stats after disk Lookup = %+v, want 1 disk hit and no misses", s)
	}
	// Promotion: the second Lookup is a memory hit.
	if _, ok := Lookup[cachePayload](c2, key); !ok {
		t.Fatal("promoted entry missing from memory layer")
	}
	if s := c2.DetailedStats(); s.MemoryHits != 1 {
		t.Fatalf("MemoryHits = %d, want 1", s.MemoryHits)
	}

	if _, ok := Lookup[cachePayload](c2, "missing-key"); ok {
		t.Fatal("Lookup of absent key reported a hit")
	}
	var nilCache *Cache
	if _, ok := Lookup[cachePayload](nilCache, key); ok {
		t.Fatal("Lookup on nil cache reported a hit")
	}
	nilCache.Put(key, want) // must not panic

	// Corrupt the on-disk entry: a fresh cache's Lookup misses, deletes it
	// and counts the corruption.
	raw, err := os.ReadFile(c2.path(key))
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(c2.path(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Lookup[cachePayload](c3, key); ok {
		t.Fatal("corrupt entry returned by Lookup")
	}
	if s := c3.DetailedStats(); s.DiskCorruptions != 1 {
		t.Fatalf("DiskCorruptions = %d, want 1", s.DiskCorruptions)
	}
	if _, err := os.Stat(filepath.Join(dir, key[:2], key+entryExt)); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not deleted: %v", err)
	}
}
