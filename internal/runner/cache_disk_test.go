package runner

import (
	"fmt"
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
