package gdp

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/runner"
)

// budgetSweepOpts is a grid with enough distinct cells (4 PRB sizes x 5
// techniques' shared entries plus private references) that a kilobyte-scale
// cache budget forces evictions mid-sweep.
func budgetSweepOpts() SweepOptions {
	opts := SweepOptions{
		CoreCounts:          []int{2},
		Mixes:               []MixKind{MixH},
		PRBSizes:            []int{8, 16, 32, 64},
		Workloads:           1,
		InstructionsPerCore: 2000,
		IntervalCycles:      2000,
		Seed:                7,
	}
	opts.Jobs = 2
	return opts
}

// TestSweepByteIdenticalUnderCacheBudget is the acceptance check for bounded
// caching: a sweep whose unique entries exceed the memory budget completes
// with byte-identical rows vs an unbounded run, the memory layer never
// exceeds the budget, and the evicted entries are re-served from the disk
// layer on a repeat sweep (disk hits move, nothing recomputes into different
// rows).
func TestSweepByteIdenticalUnderCacheBudget(t *testing.T) {
	ctx := context.Background()

	unbounded, err := NewEngine(WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := unbounded.Sweep(ctx, budgetSweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want.Rows)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 1024
	cache, err := NewDiskResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := NewEngine(WithJobs(2), WithCache(cache), WithCacheBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	got, err := bounded.Sweep(ctx, budgetSweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("bounded sweep rows differ from unbounded:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	s := cache.DetailedStats()
	if s.MemoryBytes > budget {
		t.Fatalf("MemoryBytes = %d, want <= %d", s.MemoryBytes, budget)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions despite a 1 KB budget")
	}
	if s.MemoryBudgetBytes != budget {
		t.Fatalf("MemoryBudgetBytes = %d, want %d", s.MemoryBudgetBytes, budget)
	}

	// The repeat sweep re-serves evicted entries from the disk tier: the
	// disk-hit counter must move, and the rows stay byte-identical.
	diskBefore := s.DiskHits
	again, err := bounded.Sweep(ctx, budgetSweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	againJSON, err := json.Marshal(again.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if string(againJSON) != string(wantJSON) {
		t.Fatal("repeat sweep rows differ after eviction")
	}
	if after := cache.DetailedStats(); after.DiskHits <= diskBefore {
		t.Errorf("disk hits did not move on the repeat sweep: %d -> %d", diskBefore, after.DiskHits)
	}
}

// TestWithCacheBudgetValidation pins the option's range check and that the
// budget lands on a caller-provided cache regardless of option order.
func TestWithCacheBudgetValidation(t *testing.T) {
	if _, err := NewEngine(WithCacheBudget(-1)); err == nil {
		t.Error("negative budget accepted")
	}
	cache := runner.NewCache()
	if _, err := NewEngine(WithCacheBudget(4096), WithCache(cache)); err != nil {
		t.Fatal(err)
	}
	if got := cache.DetailedStats().MemoryBudgetBytes; got != 4096 {
		t.Errorf("budget before WithCache: MemoryBudgetBytes = %d, want 4096", got)
	}
	cache2 := runner.NewCache()
	if _, err := NewEngine(WithCache(cache2), WithCacheBudget(8192)); err != nil {
		t.Fatal(err)
	}
	if got := cache2.DetailedStats().MemoryBudgetBytes; got != 8192 {
		t.Errorf("budget after WithCache: MemoryBudgetBytes = %d, want 8192", got)
	}
}
