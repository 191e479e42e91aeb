package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// The chaos grid: chaosJobs jobs drawn from chaosSpecs distinct specs, so
// duplicates exercise in-flight joins and memory hits next to the disk tier.
const (
	chaosSeeds = 64
	chaosSpecs = 10
	chaosJobs  = 16
)

type chaosSpec struct {
	Op string `json:"op"`
	N  int    `json:"n"`
}

// chaosValue is spec n's one right answer. It has five digits, so every
// non-empty proper prefix of its JSON decodes to a wrong int: a torn entry
// that reached its final name would show as a wrong value, not as a decode
// error the cache recovers from.
func chaosValue(n int) int { return 10007 + n*7919 }

// chaosFS is a seeded faulty fileOps. Whether an operation fails is a hash
// of (seed, run, operation, key, occurrence), so a schedule does not depend
// on how the pool's goroutines interleave.
type chaosFS struct {
	seed, run int64
	rate      float64 // probability that one operation fails

	mu     sync.Mutex
	seen   map[string]int
	faults atomic.Int64
}

// roll decides one operation on path. It returns nil when the operation
// proceeds, or a generator seeded for this operation that picks the fault.
func (f *chaosFS) roll(op, path string) *rand.Rand {
	key := filepath.Base(path)
	if i := strings.IndexByte(key, '.'); i > 0 {
		key = key[:i]
	}
	f.mu.Lock()
	id := fmt.Sprintf("%d/%d/%s/%s", f.seed, f.run, op, key)
	n := f.seen[id]
	f.seen[id]++
	f.mu.Unlock()
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", id, n)
	r := rand.New(rand.NewPCG(h.Sum64(), uint64(f.seed)))
	if r.Float64() >= f.rate {
		return nil
	}
	f.faults.Add(1)
	return r
}

func errno(r *rand.Rand) error {
	if r.IntN(2) == 0 {
		return syscall.EIO
	}
	return syscall.ENOSPC
}

func (f *chaosFS) ops() fileOps {
	return fileOps{
		readFile: func(name string) ([]byte, error) {
			if r := f.roll("read", name); r != nil {
				return nil, &os.PathError{Op: "read", Path: name, Err: syscall.EIO}
			}
			return os.ReadFile(name)
		},
		createTemp: func(dir, pattern string) (*os.File, error) {
			if r := f.roll("create", pattern); r != nil {
				return nil, &os.PathError{Op: "createtemp", Path: dir, Err: errno(r)}
			}
			return os.CreateTemp(dir, pattern)
		},
		write: func(file *os.File, b []byte) (int, error) {
			r := f.roll("write", file.Name())
			if r == nil {
				return file.Write(b)
			}
			if r.IntN(2) == 0 {
				return 0, errno(r)
			}
			// A short write: the disk fills after a seeded prefix.
			n, _ := file.Write(b[:r.IntN(len(b))])
			return n, syscall.ENOSPC
		},
		sync: func(file *os.File) error {
			if r := f.roll("sync", file.Name()); r != nil {
				return syscall.EIO
			}
			return file.Sync()
		},
		rename: func(oldpath, newpath string) error {
			if r := f.roll("rename", oldpath); r != nil {
				return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: errno(r)}
			}
			return os.Rename(oldpath, newpath)
		},
	}
}

// chaosJob builds job i of a run: it answers spec n, panics when it is the
// run's panic job (recovered into an error inside the job, as the worker
// recovers a cell's panic) and cancels the run when it is the cancel job.
func chaosJob(i, n, panicAt, cancelAt int, cancel context.CancelFunc) Job[int] {
	return Job[int]{
		Label: fmt.Sprintf("job%d", i),
		Spec:  chaosSpec{Op: "chaos", N: n},
		Fn: func(ctx context.Context) (v int, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("job %d panicked: %v", i, r)
				}
			}()
			if i == panicAt {
				panic("injected")
			}
			if i == cancelAt {
				cancel()
			}
			return chaosValue(n), nil
		},
	}
}

// TestDiskCacheChaos explores seeded fault schedules over the disk tier: each
// seed runs the same jobs over one cache directory one to three times under
// faults (EIO or ENOSPC from create, write, fsync, rename and read, short
// writes, a job panic, cancellation at a job, a budget that spills evicted
// entries), damages the directory the way a crash between a tmp write and
// its rename would (the entry lost, a prefix of it left in a tmp file) and
// adds stray tmp files, then reruns fault-free over the same directory.
//
// Every faulty run returns the reference results or an error it was
// scheduled to return (disk faults never fail a run), every entry on disk
// decodes to its key's value, the cache leaves no tmp file of its own, the
// rerun returns the reference results, and goroutines and open files return
// to their baseline. A failing seed replays alone with
// go test -run 'TestDiskCacheChaos/seed=N' ./internal/runner.
func TestDiskCacheChaos(t *testing.T) {
	want := map[string]int{} // spec key -> value
	for n := range chaosSpecs {
		key, err := SpecKey(chaosSpec{Op: "chaos", N: n})
		if err != nil {
			t.Fatal(err)
		}
		want[key] = chaosValue(n)
	}
	for seed := int64(1); seed <= chaosSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosSeed(t, seed, want)
		})
	}
}

func chaosSeed(t *testing.T, seed int64, want map[string]int) {
	goroutines, fds := runtime.NumGoroutine(), openFiles(t)
	r := rand.New(rand.NewPCG(uint64(seed), 0))
	dir := t.TempDir()
	specs := make([]int, chaosJobs)
	for i := range specs {
		specs[i] = r.IntN(chaosSpecs)
	}
	planted := map[string]bool{} // tmp files the test left, not the cache

	runs := 1 + r.IntN(3)
	for run := range runs {
		c, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		fsys := &chaosFS{seed: seed, run: int64(run), rate: 0.6 * r.Float64(), seen: map[string]int{}}
		c.files = fsys.ops()
		if r.IntN(2) == 0 {
			c.SetMaxBytes(int64(100 + r.IntN(400)))
		}
		panicAt, cancelAt := -1, -1
		if r.IntN(3) == 0 {
			panicAt = r.IntN(chaosJobs)
		}
		if r.IntN(3) == 0 {
			cancelAt = r.IntN(chaosJobs)
		}
		workers := 1 << r.IntN(4)

		ctx, cancel := context.WithCancel(t.Context())
		jobs := make([]Job[int], chaosJobs)
		for i, n := range specs {
			jobs[i] = chaosJob(i, n, panicAt, cancelAt, cancel)
		}
		res, err := Run(ctx, jobs, Options{Workers: workers, Cache: c})
		cancel()
		desc := fmt.Sprintf("run %d (workers=%d rate=%.2f panic=%d cancel=%d, %d faults)",
			run, workers, fsys.rate, panicAt, cancelAt, fsys.faults.Load())
		t.Logf("%s: err=%v", desc, err)
		switch {
		case err == nil:
			checkChaosResults(t, desc, res, specs)
		case errors.Is(err, context.Canceled) && cancelAt >= 0:
		case strings.Contains(err.Error(), "panicked") && panicAt >= 0:
		default:
			t.Fatalf("%s: unscheduled error %v", desc, err)
		}
		checkChaosDir(t, desc, dir, want, planted)
		damageChaosDir(t, r, dir, planted)
	}

	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job[int], chaosJobs)
	for i, n := range specs {
		jobs[i] = chaosJob(i, n, -1, -1, nil)
	}
	res, err := Run(t.Context(), jobs, Options{Workers: 1 << r.IntN(4), Cache: c})
	if err != nil {
		t.Fatalf("fault-free rerun: %v", err)
	}
	checkChaosResults(t, "fault-free rerun", res, specs)
	distinct := map[int]bool{}
	for _, n := range specs {
		distinct[n] = true
	}
	if n := checkChaosDir(t, "fault-free rerun", dir, want, planted); n != len(distinct) {
		t.Errorf("fault-free rerun left %d entries on disk, want one per spec (%d)", n, len(distinct))
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFiles(t)
		if g <= goroutines && f <= fds {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: %d goroutines (baseline %d), %d open files (baseline %d)", g, goroutines, f, fds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func checkChaosResults(t *testing.T, desc string, res []int, specs []int) {
	t.Helper()
	for i, n := range specs {
		if res[i] != chaosValue(n) {
			t.Fatalf("%s: job %d = %d, want %d", desc, i, res[i], chaosValue(n))
		}
	}
}

// checkChaosDir asserts that every entry on disk decodes to its key's value
// and that every tmp file is one the test planted. It returns the number of
// entries.
func checkChaosDir(t *testing.T, desc, dir string, want map[string]int, planted map[string]bool) int {
	t.Helper()
	entries := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasSuffix(name, ".tmp") {
			if !planted[path] {
				t.Errorf("%s: the cache left tmp file %s", desc, name)
			}
			return nil
		}
		entries++
		key := strings.TrimSuffix(name, ".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var got int
		if err := json.Unmarshal(raw, &got); err != nil || got != want[key] {
			t.Errorf("%s: entry %s holds %q, want %d", desc, shortKey(key), raw, want[key])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// damageChaosDir leaves what a crash can: for a seeded share of the entries,
// the entry is gone and a tmp file holds a prefix of its bytes cut at a seeded
// offset (the write reached the tmp file, the rename never happened). Stray
// tmp files with junk bytes land in random shards.
func damageChaosDir(t *testing.T, r *rand.Rand, dir string, planted map[string]bool) {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	plant := func(path string, raw []byte) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		planted[path] = true
	}
	for _, path := range entries {
		if r.IntN(4) != 0 {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		plant(fmt.Sprintf("%s.%d.tmp", path, r.Uint32()), raw[:r.IntN(len(raw)+1)])
	}
	for range r.IntN(3) {
		plant(filepath.Join(dir, fmt.Sprintf("%02x", r.IntN(256)), fmt.Sprintf("stray.%d.tmp", r.Uint32())),
			[]byte("12"))
	}
}

// openFiles counts the process's open file descriptors on Linux; elsewhere
// it reports zero, which turns the fd check off.
func openFiles(t *testing.T) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		return 0
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}
