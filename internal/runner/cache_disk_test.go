package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDiskCacheConcurrentWriters: two caches over one directory — two
// processes sharing a -cache-dir — rewrite and reread the same keys from 64
// goroutines. No write may expose another writer's half-written file, so
// every read decodes and nothing is ever counted corrupt.
func TestDiskCacheConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	var caches [2]*Cache
	for i := range caches {
		c, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		c.SetMaxBytes(1) // nothing stays in memory: every Lookup reads the disk
		caches[i] = c
	}
	payload := func(key string) []cachePayload {
		rows := make([]cachePayload, 64)
		for i := range rows {
			rows[i] = cachePayload{Label: fmt.Sprintf("%s/row-%02d", key, i), Value: i}
		}
		return rows
	}
	var keys []string
	for i := 0; i < 4; i++ {
		key, err := SpecKey(i)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		caches[0].Put(key, payload(key))
	}

	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				key := keys[(g+i)%len(keys)]
				caches[g%2].Put(key, payload(key))
				got, ok := Lookup[[]cachePayload](caches[(g+1)%2], key)
				if !ok || !reflect.DeepEqual(got, payload(key)) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	corrupt := caches[0].DetailedStats().DiskCorruptions + caches[1].DetailedStats().DiskCorruptions
	if corrupt != 0 || bad.Load() != 0 {
		t.Fatalf("%d corrupt entries, %d reads that missed or did not decode to the written rows", corrupt, bad.Load())
	}
}

// FuzzDiskCacheEntry places arbitrary bytes at a key's sharded path, as bit
// rot, a torn write or a foreign file would. Lookup must either return a
// value that survives a JSON round-trip, or report a miss, count one
// corruption and remove the file. It must never panic, and the key must work
// normally afterwards.
func FuzzDiskCacheEntry(f *testing.F) {
	good, err := json.Marshal([]cachePayload{{Label: "accuracy/2c-H/prb16", Value: 3}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})

	key, err := SpecKey("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		c, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := c.path(key)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}

		got, ok := Lookup[[]cachePayload](c, key)
		corrupt := c.DetailedStats().DiskCorruptions
		if ok {
			raw, err := json.Marshal(got)
			if err != nil {
				t.Fatalf("decoded entry does not re-encode: %v", err)
			}
			var again []cachePayload
			if err := json.Unmarshal(raw, &again); err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("decoded entry %+v does not round-trip (%v)", got, err)
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

		want := []cachePayload{{Label: "after", Value: 7}}
		c.Put(key, want)
		fresh, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := Lookup[[]cachePayload](fresh, key); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("after Put, a new cache reads %+v (hit %v), want %+v", got, ok, want)
		}
	})
}
