package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// warmReduction plans one 2-core workload's study (all five techniques) at
// instr instructions per core, runs its shared runs and its private
// references, and returns the reference set and the references its
// reduction reads, plus the number of intervals on core 0.
func warmReduction(t *testing.T, instr uint64) (*refSet, []*sim.PrivateReference, int) {
	t.Helper()
	p, err := planStudies(CellConfig{}, []accuracyStudy{{opts: AccuracyOptions{Cores: 2, Mix: workload.MixH,
		Workloads: 1, InstructionsPerCore: instr, IntervalCycles: 1000, Seed: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.runs {
		if err := r.run(t.Context(), nil); err != nil {
			t.Fatal(err)
		}
	}
	set, r := p.sets[0], p.runs[0]
	refs, err := workloadReferences(t.Context(), nil, r.opts.Config, r.wl, r.seed, unionPoints(set.runs, r.wl.Cores()))
	if err != nil {
		t.Fatal(err)
	}
	return set, refs, len(r.samples[0]) / r.width
}

// TestAccuracyReduceAllocations pins that the accuracy study's reduction reads
// the private references in place: with the references warm, its allocations
// (the partial results, one index buffer per run and core, the
// per-benchmark entries) do not grow with the number of intervals reduced.
func TestAccuracyReduceAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	measure := func(instr uint64) (float64, int) {
		set, refs, intervals := warmReduction(t, instr)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := set.reduce(refs); err != nil {
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
