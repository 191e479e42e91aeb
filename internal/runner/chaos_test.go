package runner

import (
	"bytes"
	"context"
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
// non-empty proper prefix of its JSON payload is a wrong int: a cut-short
// entry that got past the frame check would show as a wrong value.
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
			return readEntryFile(name)
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
		syncDir: syncDir,
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
// the way a failing disk would (committed entries truncated in place, or
// with one bit flipped, at seeded offsets), adds stray tmp files, then reruns
// fault-free over the same directory.
//
// Every faulty run returns the reference results or an error it was
// scheduled to return (disk faults never fail a run), counts at most one
// corruption per damaged entry, and leaves every entry on disk decoding to
// its key's value unless it is a damaged entry the run never touched. No
// damaged entry ever decodes. The cache leaves no tmp file of its own, the
// rerun counts exactly one corruption per damaged entry, returns the
// reference results and rewrites every entry, and goroutines and open files
// return to their baseline. A failing seed replays alone with
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
	planted := map[string]bool{}   // tmp files the test left, not the cache
	damaged := map[string][]byte{} // entries the test damaged -> their bytes

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
		wasDamaged := len(damaged)
		res, err := Run(ctx, jobs, Options{Workers: workers, Cache: c})
		cancel()
		desc := fmt.Sprintf("run %d (workers=%d rate=%.2f panic=%d cancel=%d, %d faults, %d damaged entries)",
			run, workers, fsys.rate, panicAt, cancelAt, fsys.faults.Load(), wasDamaged)
		t.Logf("%s: err=%v", desc, err)
		if n := c.DetailedStats().DiskCorruptions; n > int64(wasDamaged) {
			t.Errorf("%s: counted %d corruptions", desc, n)
		}
		switch {
		case err == nil:
			checkChaosResults(t, desc, res, specs)
		case errors.Is(err, context.Canceled) && cancelAt >= 0:
		case strings.Contains(err.Error(), "panicked") && panicAt >= 0:
		default:
			t.Fatalf("%s: unscheduled error %v", desc, err)
		}
		checkChaosDir(t, desc, dir, want, planted, damaged)
		damageChaosDir(t, r, dir, planted, damaged)
	}

	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job[int], chaosJobs)
	for i, n := range specs {
		jobs[i] = chaosJob(i, n, -1, -1, nil)
	}
	wasDamaged := len(damaged)
	res, err := Run(t.Context(), jobs, Options{Workers: 1 << r.IntN(4), Cache: c})
	if err != nil {
		t.Fatalf("fault-free rerun: %v", err)
	}
	checkChaosResults(t, "fault-free rerun", res, specs)
	if n := c.DetailedStats().DiskCorruptions; n != int64(wasDamaged) {
		t.Errorf("fault-free rerun counted %d corruptions over %d damaged entries", n, wasDamaged)
	}
	distinct := map[int]bool{}
	for _, n := range specs {
		distinct[n] = true
	}
	if n := checkChaosDir(t, "fault-free rerun", dir, want, planted, damaged); n != len(distinct) || len(damaged) != 0 {
		t.Errorf("fault-free rerun left %d entries on disk (%d of them damaged), want one healthy entry per spec (%d)",
			n, len(damaged), len(distinct))
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

// checkChaosDir asserts that every entry on disk decodes through its frame to
// its key's value, or fails the frame check and is a damaged entry the cache
// has not touched since, and that every tmp file is one the test planted. It
// drops the entries the cache removed or rewrote from damaged and returns the
// number of entries.
func checkChaosDir(t *testing.T, desc, dir string, want map[string]int, planted map[string]bool, damaged map[string][]byte) int {
	t.Helper()
	entries := 0
	stillDamaged := map[string]bool{}
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
		key := strings.TrimSuffix(name, entryExt)
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		untouched := damaged[path] != nil && bytes.Equal(raw, damaged[path])
		got, err := decodeEntry[int](raw)
		switch {
		case untouched && err == nil:
			t.Errorf("%s: damaged entry %s decodes (to %d)", desc, shortKey(key), got)
		case untouched:
			stillDamaged[path] = true
		case err != nil || got != want[key]:
			t.Errorf("%s: entry %s holds %q (%v), want %d", desc, shortKey(key), raw, err, want[key])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range damaged {
		if !stillDamaged[path] {
			delete(damaged, path)
		}
	}
	return entries
}

// damageChaosDir leaves what a crash or a failing disk can. For a seeded half
// of the entries, in equal shares: the entry is gone and a tmp file holds a
// prefix of its bytes cut at a seeded offset (the write reached the tmp file,
// the rename never happened); the entry is cut short in place at a seeded
// offset; or one bit of it, at a seeded offset, is flipped. The last two are
// recorded in damaged. Stray tmp files with junk bytes land in random shards.
func damageChaosDir(t *testing.T, r *rand.Rand, dir string, planted map[string]bool, damaged map[string][]byte) {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*"+entryExt))
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
		damage := r.IntN(6)
		if damage > 2 {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			continue // cut to nothing by an earlier run's damage
		}
		switch damage {
		case 0:
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			plant(fmt.Sprintf("%s.%d.tmp", path, r.Uint32()), raw[:r.IntN(len(raw)+1)])
			delete(damaged, path)
			continue
		case 1:
			raw = raw[:r.IntN(len(raw))]
		case 2:
			raw[r.IntN(len(raw))] ^= 1 << r.IntN(8)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged[path] = raw
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
