package experiments

import (
	"testing"

	"repro/internal/runner"
	"repro/internal/workload"
)

// The tests below pin the reference-per-workload rule: on a fresh cache, a
// workload's private references cost exactly one cache entry, however many
// shared runs align on them.

func TestAccuracyStudyOneReferenceEntryPerWorkload(t *testing.T) {
	cache := runner.NewCache()
	_, err := AccuracyStudy(AccuracyOptions{
		Cores:               4,
		Mix:                 workload.MixH,
		Workloads:           1,
		InstructionsPerCore: 2500,
		IntervalCycles:      2000,
		Seed:                21,
		Techniques:          TechniqueNames,
		Jobs:                2,
		Cache:               cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != 1 {
		t.Errorf("4-core study with all five techniques computed %d reference entries, want 1", misses)
	}
}

func TestPartitioningStudyOneReferenceEntryPerWorkload(t *testing.T) {
	cache := runner.NewCache()
	_, err := PartitioningStudy(PartitioningOptions{
		Cores:               2,
		Mix:                 workload.MixH,
		Workloads:           2,
		InstructionsPerCore: 2000,
		IntervalCycles:      2000,
		Seed:                4,
		Jobs:                2,
		Cache:               cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != 2 {
		t.Errorf("2-workload partitioning study computed %d reference entries, want 2", misses)
	}
}

// TestSweepMissesAreCellsPlusWorkloads runs the benchmark ledger's sweep grid
// shape at a smaller sample: each cell is one entry, and each distinct
// workload of each study kind one more (accuracy cells of one core count and
// mix share theirs across PRB sizes, as scenario cells do).
func TestSweepMissesAreCellsPlusWorkloads(t *testing.T) {
	opts := SweepOptions{
		CoreCounts:          []int{2, 4},
		Mixes:               []workload.MixKind{workload.MixH, workload.MixM, workload.MixL},
		PRBSizes:            []int{4, 8, 16, 32},
		Policies:            []string{"LRU", "UCP", "MCP"},
		Scenarios:           []string{"bursty"},
		Workloads:           1,
		InstructionsPerCore: 1500,
		IntervalCycles:      1500,
		Seed:                17,
		Jobs:                2,
		Cache:               runner.NewCache(),
	}
	res, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	pairs := len(opts.CoreCounts) * len(opts.Mixes)
	workloads := pairs + pairs + len(opts.CoreCounts)*len(opts.Scenarios)
	if res.Cells != 38 {
		t.Fatalf("cells = %d, want the ledger grid's 38", res.Cells)
	}
	if misses := opts.Cache.DetailedStats().Misses; misses != int64(res.Cells+workloads) {
		t.Errorf("misses = %d, want %d cells + %d workloads", misses, res.Cells, workloads)
	}
}
