package experiments

import (
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// warmReduction runs one 2-core workload's shared runs (all five techniques)
// at instr instructions per core and its private references, and returns what
// reduceRuns reads plus the number of intervals on core 0.
func warmReduction(t *testing.T, instr uint64) ([]*sim.PrivateReference, []*sharedRun, workload.Workload, int) {
	t.Helper()
	opts := AccuracyOptions{Cores: 2, Mix: workload.MixH, Workloads: 1, InstructionsPerCore: instr,
		IntervalCycles: 1000, Seed: 8}.withDefaults()
	wls, err := workload.Generate(workload.GenerateOptions{Cores: opts.Cores, Mix: opts.Mix, Count: 1, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	wl := wls[0]
	jobs, _ := sharedJobs(wls, opts)
	runs, err := runner.Run(t.Context(), jobs, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := workloadReferences(t.Context(), nil, opts.Config, wl, opts.Seed, unionPoints(runs, wl.Cores()))
	if err != nil {
		t.Fatal(err)
	}
	return refs, runs, wl, len(runs[0].intervals[0])
}

// TestAccuracyReduceAllocations pins that the accuracy study's reduction reads
// the private references in place: with the references warm, its allocations
// (the partial result, one index buffer per core, the per-benchmark entries)
// do not grow with the number of intervals reduced.
func TestAccuracyReduceAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	measure := func(instr uint64) (float64, int) {
		refs, runs, wl, intervals := warmReduction(t, instr)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := reduceRuns(refs, runs, wl); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, intervals
	}
	shortAllocs, shortIntervals := measure(6000)
	longAllocs, longIntervals := measure(48000)
	if longIntervals < 4*shortIntervals {
		t.Fatalf("long run has %d intervals, short %d: want at least 4x", longIntervals, shortIntervals)
	}
	if longAllocs > shortAllocs {
		t.Errorf("reduction allocates %.0f objects over %d intervals, %.0f over %d: it grows with the interval count",
			longAllocs, longIntervals, shortAllocs, shortIntervals)
	} else {
		t.Logf("reduction allocates %.0f objects over %d intervals, %.0f over %d", longAllocs, longIntervals, shortAllocs, shortIntervals)
	}
}
