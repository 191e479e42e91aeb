package runner

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Cache is a content-addressed result cache. Entries are keyed by a hash of
// the job spec (SpecKey), held in a capacity-bounded in-memory LRU layer and,
// when a directory is configured, mirrored to disk as framed entries so
// repeated CLI invocations can reuse earlier simulations. An entry's payload
// is binary when its value type registered a codec (RegisterCodec) and JSON
// otherwise; the frame carries the payload's length and a CRC-32C, so a
// truncated or bit-flipped file reads as a miss, never as a wrong value.
//
// The memory layer tracks an approximate byte size per entry (the length of
// its framed encoding, which the disk-write path computes anyway, plus a
// small fixed bookkeeping overhead). SetMaxBytes installs a budget: inserting
// past it evicts the least-recently-used entries first. An evicted entry is not
// lost when the cache is disk-backed — eviction guarantees it is persisted
// (spilling it if the write-through failed or never happened), so a later
// lookup re-serves it with one readDisk instead of a recompute. A
// memory-only cache over budget simply drops cold entries. Without a budget
// (the default) the memory layer is unbounded, as it always was.
//
// The on-disk layer shards entries into 256 two-hex-character subdirectories
// of the cache directory (dir/ab/<key>.entry): large sweeps would otherwise
// pile thousands of files into one directory, which degrades lookup on most
// filesystems.
//
// Concurrent lookups of the same key are deduplicated (Inflight): while one
// goroutine computes a result, others requesting the same spec block and
// share the outcome, so a private-mode reference needed by several studies is
// simulated exactly once.
type Cache struct {
	mu       sync.Mutex
	mem      map[string]*list.Element // of *cacheEntry
	lru      *list.List               // front = most recently used
	inflight Inflight[any]
	dir      string // empty = memory only
	files    fileOps

	// memBytes and maxBytes are mutated under mu but read lock-free by the
	// stats path (the /metrics gauge scrapes them outside any critical
	// section). maxBytes <= 0 disables eviction.
	memBytes atomic.Int64
	maxBytes atomic.Int64

	memHits       atomic.Int64
	diskHits      atomic.Int64
	misses        atomic.Int64
	inflightJoins atomic.Int64
	diskBytes     atomic.Int64
	diskCorrupt   atomic.Int64
	evictions     atomic.Int64
}

// cacheEntry is one memory-layer entry: the value, its approximate footprint
// and whether the disk layer already holds it (so eviction knows whether a
// spill write is needed to keep the entry reachable).
type cacheEntry struct {
	key       string
	val       any
	size      int64
	persisted bool
}

// entryOverhead approximates the per-entry bookkeeping the frame length does
// not see: the map slot, the list element and the interface header.
const entryOverhead = 96

// fallbackEntrySize charges entries whose value cannot be encoded (a bounded
// cache still has to account for them somehow).
const fallbackEntrySize = 512

// fileOps is the disk layer's file-system seam: every read and every step of a
// write goes through it. Caches use osFiles; tests swap in faulty operations
// to drive the disk layer through I/O errors, short writes, failed fsyncs and
// failed renames, or leave the fsyncs out where durability is not under test.
type fileOps struct {
	readFile   func(name string) ([]byte, error)
	createTemp func(dir, pattern string) (*os.File, error)
	write      func(f *os.File, b []byte) (int, error)
	sync       func(f *os.File) error
	rename     func(oldpath, newpath string) error
	syncDir    func(dir string)
}

// osFiles is the production seam: readEntryFile for reads, the os package for
// every step of a write.
var osFiles = fileOps{
	readFile:   readEntryFile,
	createTemp: os.CreateTemp,
	write:      (*os.File).Write,
	sync:       (*os.File).Sync,
	rename:     os.Rename,
	syncDir:    syncDir,
}

// NewCache returns an in-memory cache.
func NewCache() *Cache {
	return &Cache{
		mem:   map[string]*list.Element{},
		lru:   list.New(),
		files: osFiles,
	}
}

// NewDiskCache returns a cache that additionally persists every entry under
// dir (one framed entry file per key), creating the directory if needed.
// Entries of the older unframed format (<key>.json) are never opened: each
// such key is recomputed once and written in the current format.
func NewDiskCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	c := NewCache()
	c.dir = filepath.Clean(dir) // path appends to it without re-cleaning
	return c, nil
}

// SetMaxBytes bounds the memory layer to approximately maxBytes (0 disables
// the bound). If the cache is already over the new budget, cold entries are
// evicted immediately. Entries stored while the cache was both unbounded and
// memory-only were never sized (sizing costs an encode) and are carried
// at a nominal footprint; set the budget before populating the cache — the
// engine does this at construction — for accurate accounting.
func (c *Cache) SetMaxBytes(maxBytes int64) {
	if c == nil {
		return
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	c.maxBytes.Store(maxBytes)
	c.mu.Lock()
	spill := c.evictLocked(0)
	c.mu.Unlock()
	c.spill(spill)
}

// Stats reports the cache's aggregate hit and miss counters. Hits sum every
// layer that avoided a recomputation: memory lookups, disk loads, and joins
// onto another caller's in-flight computation. Use DetailedStats for the
// per-layer split.
func (c *Cache) Stats() (hits, misses int64) {
	s := c.DetailedStats()
	return s.MemoryHits + s.DiskHits + s.InflightJoins, s.Misses
}

// CacheStats is the per-layer breakdown of cache activity, JSON-ready for
// healthz payloads and metrics snapshots.
type CacheStats struct {
	// MemoryHits counts lookups satisfied by the in-process LRU layer.
	MemoryHits int64 `json:"memory_hits"`
	// DiskHits counts lookups satisfied by the sharded on-disk layer.
	DiskHits int64 `json:"disk_hits"`
	// Misses counts lookups that ran the computation.
	Misses int64 `json:"misses"`
	// InflightJoins counts lookups that blocked on and shared another
	// caller's concurrent computation of the same key.
	InflightJoins int64 `json:"inflight_joins"`
	// DiskBytesWritten counts framed entry bytes persisted to the disk layer.
	DiskBytesWritten int64 `json:"disk_bytes_written"`
	// DiskCorruptions counts on-disk entries that failed to decode (bit rot,
	// truncation, torn writes): each was deleted and its cell recomputed.
	DiskCorruptions int64 `json:"disk_corruptions"`
	// Evictions counts entries the size budget pushed out of the memory
	// layer (disk-backed caches keep them one readDisk away).
	Evictions int64 `json:"evictions"`
	// MemoryBytes is the approximate byte footprint of the memory layer.
	MemoryBytes int64 `json:"memory_bytes"`
	// MemoryBudgetBytes is the configured memory budget (0 = unbounded).
	MemoryBudgetBytes int64 `json:"memory_budget_bytes"`
}

// DetailedStats reports the cache's counters split by layer.
func (c *Cache) DetailedStats() CacheStats {
	return CacheStats{
		MemoryHits:        c.memHits.Load(),
		DiskHits:          c.diskHits.Load(),
		Misses:            c.misses.Load(),
		InflightJoins:     c.inflightJoins.Load(),
		DiskBytesWritten:  c.diskBytes.Load(),
		DiskCorruptions:   c.diskCorrupt.Load(),
		Evictions:         c.evictions.Load(),
		MemoryBytes:       c.memBytes.Load(),
		MemoryBudgetBytes: c.maxBytes.Load(),
	}
}

// SpecKey returns the content hash of a job spec: the hex SHA-256 of its
// canonical JSON encoding. Go's encoding/json sorts map keys, so structurally
// equal specs always hash identically.
func SpecKey(spec any) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("runner: spec not hashable: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// shortKey truncates a key for error messages. Exported entry points accept
// arbitrary keys, so a key shorter than the display width must not panic.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Memo returns the cached result for spec, computing it with fn on a miss.
// Concurrent calls with the same spec run fn once. The result type must
// survive its entry codec's round-trip when the cache is disk-backed: its
// registered binary codec, or JSON.
func Memo[T any](c *Cache, spec any, fn func() (T, error)) (T, bool, error) {
	return MemoContext(context.Background(), c, spec, fn)
}

// MemoKeyedContext is MemoContext for callers that already hold the spec's
// content hash, so the lookup, the in-flight registration and the disk write
// reuse it instead of re-marshaling the spec JSON.
func MemoKeyedContext[T any](ctx context.Context, c *Cache, key string, fn func() (T, error)) (T, bool, error) {
	if c == nil {
		v, err := fn()
		return v, false, err
	}
	return memoKeyed(ctx, c, key, fn)
}

// MemoContext is Memo under a context: a caller blocked on another
// goroutine's in-flight computation of the same spec stops waiting when ctx
// is cancelled (the computation keeps running for its owner, and its result
// is still cached), and never inherits that owner's cancellation (see
// Inflight.Do). fn is responsible for honoring ctx on the computing path.
func MemoContext[T any](ctx context.Context, c *Cache, spec any, fn func() (T, error)) (T, bool, error) {
	var zero T
	if c == nil {
		v, err := fn()
		return v, false, err
	}
	key, err := SpecKey(spec)
	if err != nil {
		return zero, false, err
	}
	return memoKeyed(ctx, c, key, fn)
}

// memoKeyed is the shared implementation of MemoContext and MemoKeyedContext.
func memoKeyed[T any](ctx context.Context, c *Cache, key string, fn func() (T, error)) (T, bool, error) {
	var zero T
	c.mu.Lock()
	v, found, err := memHit[T](c, key)
	c.mu.Unlock()
	if found {
		return v, err == nil, err
	}
	var (
		spill  []*cacheEntry
		cached bool // the owner found the value in memory or on disk
	)
	val, joined, err := c.inflight.Do(ctx, key, func() (any, error) {
		// A previous owner may have stored the value between the lookup above
		// and this caller's registration.
		c.mu.Lock()
		v, found, err := memHit[T](c, key)
		c.mu.Unlock()
		if found {
			cached = true
			return v, err
		}
		v, size, persisted, fromDisk, err := computeCached(c, key, fn)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		spill = c.storeLocked(key, v, size, persisted)
		c.mu.Unlock()
		// Count the owner's lookup before waking the joiners: anyone who
		// observes this call's completion must also see its miss (or disk hit).
		if fromDisk {
			c.diskHits.Add(1)
		} else {
			c.misses.Add(1)
		}
		cached = fromDisk
		return v, nil
	})
	c.spill(spill)
	if err != nil {
		return zero, false, err
	}
	typed, ok := val.(T)
	if !ok {
		return zero, false, fmt.Errorf("runner: cache entry %s holds %T, want %T", shortKey(key), val, zero)
	}
	if joined {
		c.inflightJoins.Add(1)
		return typed, true, nil
	}
	return typed, cached, nil
}

// computeCached loads the value from disk or runs fn and persists the result.
// It reports the entry's approximate memory footprint and whether the disk
// layer holds it, so the caller can insert it into the LRU accounting.
func computeCached[T any](c *Cache, key string, fn func() (T, error)) (v T, size int64, persisted, fromDisk bool, err error) {
	if v, size, ok := loadDisk[T](c, key); ok {
		return v, size, true, true, nil
	}
	if v, err = fn(); err != nil {
		var zero T
		return zero, 0, false, false, err
	}
	size, persisted = c.writeThrough(key, v)
	return v, size, persisted, false, nil
}

// memHit looks key up in the memory layer. On a hit it marks the entry most
// recently used and, when the entry holds a T, counts a memory hit. found
// reports whether key is in memory; err reports an entry of another type.
// Callers must hold c.mu.
func memHit[T any](c *Cache, key string) (v T, found bool, err error) {
	el, ok := c.mem[key]
	if !ok {
		return v, false, nil
	}
	c.lru.MoveToFront(el)
	val := el.Value.(*cacheEntry).val
	typed, ok := val.(T)
	if !ok {
		return v, true, fmt.Errorf("runner: cache entry %s holds %T, want %T", shortKey(key), val, v)
	}
	c.memHits.Add(1)
	return typed, true, nil
}

// loadDisk reads key's disk entry and decodes it as a T, reporting the
// entry's approximate memory footprint. An entry that fails its frame check
// or does not decode (bit rot, truncation, another type's entry) is deleted
// and reads as a miss, never as a decode error: the disk layer is an
// optimization and a bad file must not poison lookups until someone removes
// it by hand. The caller's recompute rewrites a healthy entry.
func loadDisk[T any](c *Cache, key string) (v T, size int64, ok bool) {
	if c.dir == "" {
		return v, 0, false
	}
	raw, ok := c.readDisk(key)
	if !ok {
		return v, 0, false
	}
	v, err := decodeEntry[T](raw)
	if err != nil {
		c.removeCorrupt(key)
		var zero T
		return zero, 0, false
	}
	return v, int64(len(raw)) + entryOverhead, true
}

// writeThrough sizes v by its framed encoding and, on a disk-backed cache,
// writes that encoding under key. It reports the entry's approximate memory
// footprint and whether the disk layer now holds it. The encoding doubles as
// the disk payload and the size estimate; an unbounded memory-only cache
// needs neither, so it skips the encode — the hot configuration before
// budgets existed stays allocation-free.
func (c *Cache) writeThrough(key string, v any) (size int64, persisted bool) {
	if c.dir == "" && c.maxBytes.Load() <= 0 {
		return fallbackEntrySize, false
	}
	raw, err := encodeEntry(v)
	if err != nil {
		return fallbackEntrySize, false
	}
	if c.dir != "" {
		persisted = c.writeDisk(key, raw)
	}
	return int64(len(raw)) + entryOverhead, persisted
}

// storeLocked inserts (or refreshes) a memory-layer entry and evicts past the
// budget, least-recently-used first. It returns the evicted entries that must
// be spilled to disk to stay reachable; the caller performs those writes
// outside the lock (spilling encodes the entry, which must not serialize every
// concurrent cache touch). Callers must hold c.mu.
func (c *Cache) storeLocked(key string, val any, size int64, persisted bool) []*cacheEntry {
	if size <= 0 {
		size = fallbackEntrySize
	}
	if el, ok := c.mem[key]; ok {
		old := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.mem, key)
		c.memBytes.Add(-old.size)
		persisted = persisted || old.persisted
	}
	spill := c.evictLocked(size)
	if max := c.maxBytes.Load(); max > 0 && c.memBytes.Load()+size > max {
		// The entry alone exceeds the budget: it never enters the memory
		// layer. With a disk tier it stays one readDisk away; without one the
		// next lookup recomputes it.
		c.evictions.Add(1)
		if !persisted && c.dir != "" {
			spill = append(spill, &cacheEntry{key: key, val: val, size: size})
		}
		return spill
	}
	el := c.lru.PushFront(&cacheEntry{key: key, val: val, size: size, persisted: persisted})
	c.mem[key] = el
	c.memBytes.Add(size)
	return spill
}

// evictLocked evicts least-recently-used entries until the memory layer has
// room for incoming more bytes within the budget, returning the victims that
// need a disk spill. Callers must hold c.mu.
func (c *Cache) evictLocked(incoming int64) []*cacheEntry {
	max := c.maxBytes.Load()
	if max <= 0 {
		return nil
	}
	var spill []*cacheEntry
	for c.memBytes.Load()+incoming > max {
		el := c.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.mem, e.key)
		c.memBytes.Add(-e.size)
		c.evictions.Add(1)
		if !e.persisted && c.dir != "" {
			spill = append(spill, e)
		}
	}
	return spill
}

// spill persists evicted entries whose write-through never happened (or
// failed), so eviction demotes them to the disk tier instead of deleting
// them. Only a disk-backed cache queues spills. Runs outside the cache lock;
// failures are silent like every other disk-layer write.
func (c *Cache) spill(entries []*cacheEntry) {
	for _, e := range entries {
		c.writeThrough(e.key, e.val)
	}
}

// Lookup returns the cached entry for key without computing anything: the
// in-memory layer first, then the disk layer (promoting a disk hit into
// memory). A corrupt disk entry is deleted and reported as a miss. The
// distributed dispatcher uses this to answer cells from the local cache
// before shipping them to a worker fleet.
func Lookup[T any](c *Cache, key string) (T, bool) {
	var zero T
	if c == nil || key == "" {
		return zero, false
	}
	c.mu.Lock()
	v, found, err := memHit[T](c, key)
	c.mu.Unlock()
	if found {
		return v, err == nil
	}
	out, size, ok := loadDisk[T](c, key)
	if !ok {
		return zero, false
	}
	c.mu.Lock()
	spill := c.storeLocked(key, out, size, true)
	c.mu.Unlock()
	c.spill(spill)
	c.diskHits.Add(1)
	return out, true
}

// Put stores an externally computed value (for example a cell result fetched
// from a remote worker) under key, in memory and — when configured — on disk,
// so later lookups of the same spec are local.
func (c *Cache) Put(key string, v any) {
	if c == nil || key == "" {
		return
	}
	size, persisted := c.writeThrough(key, v)
	c.mu.Lock()
	spill := c.storeLocked(key, v, size, persisted)
	c.mu.Unlock()
	c.spill(spill)
}

// removeCorrupt deletes a key's on-disk entry after a decode failure and
// counts the corruption.
func (c *Cache) removeCorrupt(key string) {
	c.diskCorrupt.Add(1)
	_ = os.Remove(c.path(key))
}

// path returns the sharded on-disk location of a key: a two-hex-character
// subdirectory keeps any one directory's entry count bounded.
func (c *Cache) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return c.dir + string(filepath.Separator) + shard + string(filepath.Separator) + key + entryExt
}

// readDisk loads a key's bytes from the sharded location through the c.files
// seam. Any read error behaves like a missing entry: the caller recomputes.
func (c *Cache) readDisk(key string) ([]byte, bool) {
	raw, err := c.files.readFile(c.path(key))
	return raw, err == nil
}

// writeDisk persists a key's bytes into the sharded layout via an atomic
// rename, reporting success so eviction knows whether the entry is safe to
// drop from memory. Failures are silent: the disk layer is an optimization.
// The tmp file is fsynced before the rename and the shard directory after it,
// so a crash (or power loss) can never leave a renamed-but-empty entry — the
// rename only becomes visible once the entry's bytes are durable. Every write
// has its own tmp file, so concurrent writers of one key (two processes on one
// -cache-dir) never truncate each other's bytes. A failure at any step (a
// short write included) removes the tmp file, so no entry ever holds a prefix
// of its bytes.
//
// The create, write, fsync, rename and directory fsync steps go through the
// c.files seam.
// TestDiskCacheChaos swaps in seeded faults there; a failing seed replays
// alone with go test -run 'TestDiskCacheChaos/seed=N' ./internal/runner.
func (c *Cache) writeDisk(key string, raw []byte) bool {
	p := c.path(key)
	dir := filepath.Dir(p)
	f, err := c.files.createTemp(dir, key+".*.tmp")
	if errors.Is(err, fs.ErrNotExist) {
		// The shard directory is made by the first write into it (or again,
		// if it was removed since).
		if err = os.MkdirAll(dir, 0o755); err == nil {
			f, err = c.files.createTemp(dir, key+".*.tmp")
		}
	}
	if err != nil {
		return false
	}
	tmp := f.Name()
	_, err = c.files.write(f, raw)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp creates 0600
	}
	if err == nil {
		err = c.files.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = c.files.rename(tmp, p)
	}
	if err != nil {
		os.Remove(tmp)
		return false
	}
	c.files.syncDir(dir)
	c.diskBytes.Add(int64(len(raw)))
	return true
}

// syncDir fsyncs a directory so a renamed entry's directory update is durable.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
