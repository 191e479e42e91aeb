package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/workload"
)

// TestAccuracyStudyDeterministicAcrossWorkerCounts is the runner subsystem's
// core guarantee: the same study yields identical aggregates whether it runs
// serially or on a wide worker pool.
func TestAccuracyStudyDeterministicAcrossWorkerCounts(t *testing.T) {
	base := AccuracyOptions{
		Cores:               2,
		Mix:                 workload.MixH,
		Workloads:           3,
		InstructionsPerCore: 2500,
		IntervalCycles:      2500,
		Seed:                13,
	}

	serialOpts := base
	serialOpts.Jobs = 1
	serialOpts.Cache = runner.NewCache() // private caches so runs stay independent
	serial, err := AccuracyStudy(t.Context(), serialOpts)
	if err != nil {
		t.Fatal(err)
	}

	parallelOpts := base
	parallelOpts.Jobs = 8
	parallelOpts.Cache = runner.NewCache()
	parallel, err := AccuracyStudy(t.Context(), parallelOpts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.Techniques, parallel.Techniques) {
		t.Error("per-technique aggregates differ between jobs=1 and jobs=8")
	}
	if !reflect.DeepEqual(serial.Components, parallel.Components) {
		t.Error("component error distributions differ between jobs=1 and jobs=8")
	}
}

// TestFigure3DeterministicAcrossWorkerCounts checks the CLI-visible property:
// `gdpsim fig3 -jobs 8` must render byte-identically to `-jobs 1`.
func TestFigure3DeterministicAcrossWorkerCounts(t *testing.T) {
	scale := StudyScale{
		WorkloadsPerCell:    1,
		InstructionsPerCore: 2000,
		IntervalCycles:      2000,
		Seed:                7,
		CoreCounts:          []int{2},
	}

	scale.Jobs = 1
	serial, err := Figure3(t.Context(), scale)
	if err != nil {
		t.Fatal(err)
	}
	scale.Jobs = 8
	parallel, err := Figure3(t.Context(), scale)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() != parallel.Render() {
		t.Errorf("fig3 render differs between jobs=1 and jobs=8:\n--- jobs=1\n%s--- jobs=8\n%s",
			serial.Render(), parallel.Render())
	}
	if !reflect.DeepEqual(serial.Cells, parallel.Cells) {
		t.Error("fig3 cells differ between jobs=1 and jobs=8")
	}
}

func TestPartitioningStudyDeterministicAcrossWorkerCounts(t *testing.T) {
	base := PartitioningOptions{
		Cores:               2,
		Mix:                 workload.MixM,
		Workloads:           2,
		InstructionsPerCore: 2500,
		IntervalCycles:      2500,
		Seed:                5,
	}
	serialOpts := base
	serialOpts.Jobs = 1
	serialOpts.Cache = runner.NewCache()
	serial, err := PartitioningStudy(t.Context(), serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parallelOpts := base
	parallelOpts.Jobs = 8
	parallelOpts.Cache = runner.NewCache()
	parallel, err := PartitioningStudy(t.Context(), parallelOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.PerWorkload, parallel.PerWorkload) {
		t.Error("per-workload STP differs between jobs=1 and jobs=8")
	}
	if !reflect.DeepEqual(serial.AverageSTP, parallel.AverageSTP) {
		t.Error("average STP differs between jobs=1 and jobs=8")
	}
}

// TestAccuracyStudyCancellation checks that a cancelled context aborts the
// study instead of running it to completion.
func TestAccuracyStudyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AccuracyStudy(ctx, AccuracyOptions{
		Cores:               2,
		Mix:                 workload.MixH,
		Workloads:           4,
		InstructionsPerCore: 2000,
		IntervalCycles:      2000,
		Seed:                1,
		CellConfig:          CellConfig{Cache: runner.NewCache()},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPrivateReferenceCacheSharing checks the motivating cache scenario:
// studies that align on the same private-mode reference simulations (fig3
// feeding fig4/fig5, or a repeated CLI cell) must simulate each reference
// once and recall it afterwards.
func TestPrivateReferenceCacheSharing(t *testing.T) {
	cache := runner.NewCache()
	_, err := AccuracyStudy(t.Context(), AccuracyOptions{
		Cores:               2,
		Mix:                 workload.MixH,
		Workloads:           1,
		InstructionsPerCore: 2500,
		IntervalCycles:      2500,
		Seed:                3,
		CellConfig:          CellConfig{Cache: cache, Jobs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, misses := cache.Stats()
	if misses == 0 {
		t.Fatal("cache saw no private-reference computations")
	}

	// Re-running the identical study must be served entirely from the cache:
	// no new reference simulations.
	_, err = AccuracyStudy(t.Context(), AccuracyOptions{
		Cores:               2,
		Mix:                 workload.MixH,
		Workloads:           1,
		InstructionsPerCore: 2500,
		IntervalCycles:      2500,
		Seed:                3,
		CellConfig:          CellConfig{Cache: cache, Jobs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := cache.Stats()
	if misses2 != misses {
		t.Errorf("identical re-run recomputed %d references", misses2-misses)
	}
	if hits2 == 0 {
		t.Error("identical re-run produced no cache hits")
	}
}

func TestSweepEndToEnd(t *testing.T) {
	res, err := Sweep(t.Context(), SweepOptions{
		CoreCounts:          []int{2},
		Mixes:               []workload.MixKind{workload.MixH, workload.MixM},
		PRBSizes:            []int{16, 32},
		Techniques:          []string{"GDP", "GDP-O"},
		Policies:            []string{"LRU", "MCP"},
		Workloads:           1,
		InstructionsPerCore: 2000,
		IntervalCycles:      2000,
		Seed:                9,
		CellConfig:          CellConfig{Jobs: 8, Cache: runner.NewCache()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 mixes × 2 PRB sizes accuracy cells + 2 partitioning cells.
	if res.Cells != 6 {
		t.Errorf("cells = %d, want 6", res.Cells)
	}
	// Accuracy rows: 4 cells × 2 techniques; partitioning rows: 2 cells × 2
	// policies.
	if len(res.Rows) != 4*2+2*2 {
		t.Errorf("rows = %d, want 12", len(res.Rows))
	}
	var sawAccuracy, sawPartitioning bool
	for _, row := range res.Rows {
		switch row.Kind {
		case "accuracy":
			sawAccuracy = true
			if row.MeanIPCAbsRMS < 0 {
				t.Errorf("negative RMS in %+v", row)
			}
		case "partitioning":
			sawPartitioning = true
			if row.AverageSTP <= 0 {
				t.Errorf("non-positive STP in %+v", row)
			}
		}
	}
	if !sawAccuracy || !sawPartitioning {
		t.Error("sweep missing a cell kind")
	}

	tab := res.Table()
	if len(tab.Rows) != len(res.Rows) {
		t.Errorf("table rows = %d, want %d", len(tab.Rows), len(res.Rows))
	}
	if !strings.Contains(res.Render(), "Sweep: 6 cells") {
		t.Errorf("render header wrong:\n%s", res.Render())
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(jobs int) *SweepResult {
		t.Helper()
		res, err := Sweep(t.Context(), SweepOptions{
			CoreCounts:          []int{2},
			Mixes:               []workload.MixKind{workload.MixH},
			PRBSizes:            []int{16, 32},
			Techniques:          []string{"GDP-O"},
			Workloads:           1,
			InstructionsPerCore: 2000,
			IntervalCycles:      2000,
			Seed:                4,
			CellConfig:          CellConfig{Jobs: jobs, Cache: runner.NewCache()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Error("sweep results differ between jobs=1 and jobs=8")
	}
}

// TestSweepIgnoresWarmupIntervals: the deprecated WarmupIntervals knob is
// accepted and ignored, so a sweep with a warm-up gives the rows of one
// without, ASM and scenario cells included.
func TestSweepIgnoresWarmupIntervals(t *testing.T) {
	run := func(warmupIntervals int) *SweepResult {
		t.Helper()
		res, err := Sweep(t.Context(), SweepOptions{
			CoreCounts:          []int{2},
			Mixes:               []workload.MixKind{workload.MixH},
			PRBSizes:            []int{16, 32},
			Techniques:          []string{"GDP", "GDP-O", "ITCA", "ASM"},
			Scenarios:           []string{"streaming"},
			Workloads:           1,
			InstructionsPerCore: 5000,
			IntervalCycles:      2000,
			Seed:                7,
			CellConfig:          CellConfig{Jobs: 1, Cache: runner.NewCache()},
			WarmupIntervals:     warmupIntervals,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(0), run(4)) {
		t.Error("sweep rows with WarmupIntervals 4 differ from the rows with 0")
	}
}

// TestSweepCellsRecalledFromCache: grid cells carry specs, so re-running the
// same grid over the same cache recalls every cell instead of re-simulating.
func TestSweepCellsRecalledFromCache(t *testing.T) {
	ctx := context.Background()
	cache := runner.NewCache()
	opts := SweepOptions{
		CoreCounts:          []int{2},
		Mixes:               []workload.MixKind{workload.MixL},
		PRBSizes:            []int{32},
		Techniques:          []string{"GDP"},
		Workloads:           1,
		InstructionsPerCore: 4000,
		IntervalCycles:      2000,
		Seed:                3,
		CellConfig:          CellConfig{Jobs: 1, Cache: cache},
	}
	first, err := Sweep(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore, _ := cache.Stats()
	second, err := Sweep(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	hitsAfter, _ := cache.Stats()
	if hitsAfter <= hitsBefore {
		t.Fatalf("second sweep hit the cache %d times, want more than %d", hitsAfter, hitsBefore)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("recalled sweep diverges from the computed one")
	}
}

// TestScenarioSweepDeterministicAcrossWorkerCounts pins the event-driven
// fast driver's determinism at the experiment layer: an accuracy sweep over
// every named scenario must produce byte-identical results whether the cells
// run serially or fanned out over eight workers (the per-cell simulations run
// on the fast-forwarding driver either way).
func TestScenarioSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(jobs int) *SweepResult {
		t.Helper()
		res, err := Sweep(t.Context(), SweepOptions{
			CoreCounts:          []int{2},
			Scenarios:           workload.ScenarioNames(),
			Techniques:          []string{"GDP-O"},
			Workloads:           1,
			InstructionsPerCore: 2000,
			IntervalCycles:      2000,
			Seed:                4,
			CellConfig:          CellConfig{Jobs: jobs, Cache: runner.NewCache()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("scenario sweep results differ between jobs=1 and jobs=8")
	}
	// A scenarios-only sweep evaluates exactly the named scenarios (the
	// default mixes only apply to grids without scenario cells).
	if want := len(workload.ScenarioNames()); serial.Cells != want {
		t.Errorf("sweep ran %d cells, want %d (one per scenario)", serial.Cells, want)
	}
}

func TestParseMixAndIntLists(t *testing.T) {
	mixes, err := ParseMixList("H, m,HMLL")
	if err != nil {
		t.Fatal(err)
	}
	want := []workload.MixKind{workload.MixH, workload.MixM, workload.MixHMLL}
	if !reflect.DeepEqual(mixes, want) {
		t.Errorf("mixes = %v, want %v", mixes, want)
	}
	if _, err := ParseMixList("H,nope"); err == nil {
		t.Error("bad mix accepted")
	}
	ints, err := ParseIntList("2, 4,8")
	if err != nil || !reflect.DeepEqual(ints, []int{2, 4, 8}) {
		t.Errorf("ints = %v (%v)", ints, err)
	}
	if _, err := ParseIntList("2,x"); err == nil {
		t.Error("bad int accepted")
	}
}
