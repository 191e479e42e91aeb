package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/partition"
	"repro/internal/workload"
)

// mustEqualResults fails the test unless two Results are byte-identical
// (compared both structurally and through their canonical JSON encoding, so
// "byte-identical" is literal).
func mustEqualResults(t *testing.T, cold, forked *Result) {
	t.Helper()
	if cold.Cycles != forked.Cycles {
		t.Fatalf("cycles diverge: cold=%d forked=%d", cold.Cycles, forked.Cycles)
	}
	if !reflect.DeepEqual(cold.CoreStats, forked.CoreStats) {
		t.Fatalf("core stats diverge:\ncold:   %+v\nforked: %+v", cold.CoreStats, forked.CoreStats)
	}
	if !reflect.DeepEqual(cold.SampleStats, forked.SampleStats) {
		t.Fatal("sample stats diverge")
	}
	if !reflect.DeepEqual(cold.SamplePoints, forked.SamplePoints) {
		t.Fatalf("sample points diverge:\ncold:   %v\nforked: %v", cold.SamplePoints, forked.SamplePoints)
	}
	if !reflect.DeepEqual(cold.Intervals, forked.Intervals) {
		t.Fatal("interval records diverge")
	}
	coldJSON, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	forkedJSON, err := json.Marshal(forked)
	if err != nil {
		t.Fatal(err)
	}
	if string(coldJSON) != string(forkedJSON) {
		t.Fatal("results are not byte-identical under JSON encoding")
	}
}

// prefixOptions returns scenario options with an effectively unbounded
// instruction sample, the shape the warmup prefix runs with.
func prefixOptions(t *testing.T, name string, cores int) Options {
	t.Helper()
	opts := scenarioOptions(t, name, cores)
	opts.InstructionsPerCore = 1 << 40
	return opts
}

// TestForkMatchesColdAcrossScenarios is the fork-equivalence differential
// test: for every named scenario, a run forked from a mid-run checkpoint must
// produce a Result byte-identical to a cold run of the same options.
func TestForkMatchesColdAcrossScenarios(t *testing.T) {
	ctx := context.Background()
	for _, name := range workload.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			cold, err := Run(scenarioOptions(t, name, 4))
			if err != nil {
				t.Fatal(err)
			}
			warmup := scenarioOptions(t, name, 4).IntervalCycles * 2
			cp, err := RunToCheckpoint(ctx, prefixOptions(t, name, 4), warmup)
			if err != nil {
				t.Fatal(err)
			}
			forked, err := RunFromCheckpoint(ctx, scenarioOptions(t, name, 4), cp)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, cold, forked)
		})
	}
}

// TestForkMatchesColdWithASM covers the invasive accountant: the checkpoint
// carries the memory controller's priority state and ASM's epoch position.
func TestForkMatchesColdWithASM(t *testing.T) {
	ctx := context.Background()
	asmOptions := func() Options {
		opts := scenarioOptions(t, "bursty", 4)
		asm, err := accounting.NewASM(4, 900, nil) // deliberately not interval-aligned
		if err != nil {
			t.Fatal(err)
		}
		opts.Accountants = []accounting.Accountant{asm}
		return opts
	}
	cold, err := Run(asmOptions())
	if err != nil {
		t.Fatal(err)
	}
	prefix := asmOptions()
	prefix.InstructionsPerCore = 1 << 40
	cp, err := RunToCheckpoint(ctx, prefix, prefix.IntervalCycles*2)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := RunFromCheckpoint(ctx, asmOptions(), cp)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, cold, forked)
}

// TestForkMatchesColdWithPartitioner covers repartitioning runs: the LLC way
// partition installed during the warmup is part of the checkpoint.
func TestForkMatchesColdWithPartitioner(t *testing.T) {
	ctx := context.Background()
	partOptions := func() Options {
		opts := scenarioOptions(t, "cache-thrash", 4)
		opts.Partitioner = partition.MCP{}
		opts.PartitionSource = "GDP-O"
		return opts
	}
	cold, err := Run(partOptions())
	if err != nil {
		t.Fatal(err)
	}
	prefix := partOptions()
	prefix.InstructionsPerCore = 1 << 40
	cp, err := RunToCheckpoint(ctx, prefix, prefix.IntervalCycles*2)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := RunFromCheckpoint(ctx, partOptions(), cp)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, cold, forked)
}

// TestForkMatchesColdOnReferenceDriver crosses checkpointing with the
// cycle-by-cycle reference engine in both roles (reference prefix feeding a
// fast fork, fast prefix feeding a reference fork).
func TestForkMatchesColdOnReferenceDriver(t *testing.T) {
	ctx := context.Background()
	cold, err := Run(scenarioOptions(t, "phased", 4))
	if err != nil {
		t.Fatal(err)
	}
	refPrefix := prefixOptions(t, "phased", 4)
	refPrefix.Reference = true
	cp, err := RunToCheckpoint(ctx, refPrefix, refPrefix.IntervalCycles*2)
	if err != nil {
		t.Fatal(err)
	}
	fastFork, err := RunFromCheckpoint(ctx, scenarioOptions(t, "phased", 4), cp)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, cold, fastFork)

	refFork := scenarioOptions(t, "phased", 4)
	refFork.Reference = true
	forked, err := RunFromCheckpoint(ctx, refFork, cp)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, cold, forked)
}

// TestForkFromSupersetPrefix is the warmup-sharing property itself: a prefix
// run carrying GDP units for several PRB sizes at once seeds forks that each
// attach only one size, and every fork is byte-identical to its own cold run.
func TestForkFromSupersetPrefix(t *testing.T) {
	ctx := context.Background()
	cellOptions := func(prb int) Options {
		opts := scenarioOptions(t, "pointer-chase", 4)
		gdp, err := accounting.NewGDP(4, prb, false)
		if err != nil {
			t.Fatal(err)
		}
		gdpo, err := accounting.NewGDP(4, prb, true)
		if err != nil {
			t.Fatal(err)
		}
		itca, err := accounting.NewITCA(4)
		if err != nil {
			t.Fatal(err)
		}
		opts.Accountants = []accounting.Accountant{gdp, gdpo, itca}
		return opts
	}

	prefix := prefixOptions(t, "pointer-chase", 4)
	prefix.Accountants = nil
	for _, prb := range []int{8, 32} {
		gdp, err := accounting.NewGDP(4, prb, false)
		if err != nil {
			t.Fatal(err)
		}
		gdpo, err := accounting.NewGDP(4, prb, true)
		if err != nil {
			t.Fatal(err)
		}
		prefix.Accountants = append(prefix.Accountants, gdp, gdpo)
	}
	itca, err := accounting.NewITCA(4)
	if err != nil {
		t.Fatal(err)
	}
	ptca, err := accounting.NewPTCA(4)
	if err != nil {
		t.Fatal(err)
	}
	prefix.Accountants = append(prefix.Accountants, itca, ptca)

	cp, err := RunToCheckpoint(ctx, prefix, prefix.IntervalCycles*2)
	if err != nil {
		t.Fatal(err)
	}
	for _, prb := range []int{8, 32} {
		cold, err := Run(cellOptions(prb))
		if err != nil {
			t.Fatal(err)
		}
		forked, err := RunFromCheckpoint(ctx, cellOptions(prb), cp)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualResults(t, cold, forked)
	}
}

// TestCheckpointSurvivesJSONRoundTrip pins the serializability requirement:
// a checkpoint marshaled to JSON and back (the disk-cache path) seeds a fork
// byte-identical to the cold run.
func TestCheckpointSurvivesJSONRoundTrip(t *testing.T) {
	ctx := context.Background()
	cold, err := Run(scenarioOptions(t, "bandwidth-bound", 4))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := RunToCheckpoint(ctx, prefixOptions(t, "bandwidth-bound", 4), scenarioOptions(t, "bandwidth-bound", 4).IntervalCycles*2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Checkpoint
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	forked, err := RunFromCheckpoint(ctx, scenarioOptions(t, "bandwidth-bound", 4), &decoded)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, cold, forked)
}

// TestCheckpointSharedAcrossConcurrentForks guards the aliasing contract: one
// in-memory checkpoint value seeds many concurrent forks (the jobs=N sweep
// path), so restoring must copy, never mutate the shared value.
func TestCheckpointSharedAcrossConcurrentForks(t *testing.T) {
	ctx := context.Background()
	cold, err := Run(scenarioOptions(t, "streaming", 4))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := RunToCheckpoint(ctx, prefixOptions(t, "streaming", 4), scenarioOptions(t, "streaming", 4).IntervalCycles*2)
	if err != nil {
		t.Fatal(err)
	}
	const forks = 8
	results := make([]*Result, forks)
	errs := make([]error, forks)
	done := make(chan int, forks)
	for f := 0; f < forks; f++ {
		go func(f int) {
			results[f], errs[f] = RunFromCheckpoint(ctx, scenarioOptions(t, "streaming", 4), cp)
			done <- f
		}(f)
	}
	for i := 0; i < forks; i++ {
		<-done
	}
	for f := 0; f < forks; f++ {
		if errs[f] != nil {
			t.Fatal(errs[f])
		}
		mustEqualResults(t, cold, results[f])
	}
}

// TestForkValidationRejectsMismatches enumerates the mismatch taxonomy: every
// rejected fork fails with ErrCheckpointMismatch (the signal the experiments
// layer turns into a cold-run fallback).
func TestForkValidationRejectsMismatches(t *testing.T) {
	ctx := context.Background()
	base := func() Options { return scenarioOptions(t, "streaming", 4) }
	cp, err := RunToCheckpoint(ctx, prefixOptions(t, "streaming", 4), base().IntervalCycles*2)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Options){
		"seed":     func(o *Options) { o.Seed++ },
		"interval": func(o *Options) { o.IntervalCycles *= 2 },
		"config":   func(o *Options) { o.Config = config.ScaledConfig(4).WithLLCWays(8) },
		"instructions-inside-warmup": func(o *Options) {
			o.InstructionsPerCore = 1 // the warmup already committed more
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			opts := base()
			mutate(&opts)
			if _, err := RunFromCheckpoint(ctx, opts, cp); !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("expected ErrCheckpointMismatch, got %v", err)
			}
		})
	}
	t.Run("missing-accountant", func(t *testing.T) {
		opts := base()
		asm, err := accounting.NewASM(4, 900, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.Accountants = []accounting.Accountant{asm}
		if _, err := RunFromCheckpoint(ctx, opts, cp); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("expected ErrCheckpointMismatch, got %v", err)
		}
	})
}

// TestWarmupTooLongReported: a prefix whose run finishes before the boundary
// must say so instead of returning a bogus checkpoint.
func TestWarmupTooLongReported(t *testing.T) {
	opts := scenarioOptions(t, "compute-heavy", 4) // finishes in a few thousand cycles
	if _, err := RunToCheckpoint(context.Background(), opts, opts.IntervalCycles*4096); !errors.Is(err, ErrWarmupTooLong) {
		t.Fatalf("expected ErrWarmupTooLong, got %v", err)
	}
}

// TestSnapshotRoundTripProperty is the fuzzed snapshot round-trip property:
// over randomized (scenario, split point, seed) triples, Snapshot -> Restore
// -> run N cycles must equal the uninterrupted run. The cases are drawn from
// a fixed-seed RNG so failures reproduce.
func TestSnapshotRoundTripProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20260726))
	names := workload.ScenarioNames()
	iterations := 6
	if testing.Short() {
		iterations = 2
	}
	for it := 0; it < iterations; it++ {
		name := names[rng.Intn(len(names))]
		splitIntervals := uint64(1 + rng.Intn(4))
		seed := rng.Int63n(1 << 32)
		t.Run(name, func(t *testing.T) {
			mkOpts := func() Options {
				opts := scenarioOptions(t, name, 2)
				opts.Seed = seed
				return opts
			}
			cold, err := Run(mkOpts())
			if err != nil {
				t.Fatal(err)
			}
			prefix := mkOpts()
			prefix.InstructionsPerCore = 1 << 40
			warmup := prefix.IntervalCycles * splitIntervals
			cp, err := RunToCheckpoint(ctx, prefix, warmup)
			if err != nil {
				t.Fatal(err)
			}
			forked, err := RunFromCheckpoint(ctx, mkOpts(), cp)
			if err != nil {
				t.Fatal(err)
			}
			mustEqualResults(t, cold, forked)
		})
	}
}

// TestForkStreamsWarmupIntervals: a fork with an OnInterval sink must deliver
// the warmup's records (from the checkpoint) before the live ones, exactly as
// the cold run streams them.
func TestForkStreamsWarmupIntervals(t *testing.T) {
	ctx := context.Background()
	collect := func(run func(Options) (*Result, error)) []IntervalRecord {
		var recs []IntervalRecord
		opts := scenarioOptions(t, "latency-bound", 4)
		opts.DiscardIntervals = true
		opts.OnInterval = func(rec IntervalRecord) error {
			// Estimates maps may be recycled by the caller contract; copy.
			cp := rec
			cp.Estimates = make(map[string]accounting.Estimate, len(rec.Estimates))
			for k, v := range rec.Estimates {
				cp.Estimates[k] = v
			}
			recs = append(recs, cp)
			return nil
		}
		if _, err := run(opts); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	coldRecs := collect(Run)
	cp, err := RunToCheckpoint(ctx, prefixOptions(t, "latency-bound", 4), scenarioOptions(t, "latency-bound", 4).IntervalCycles*2)
	if err != nil {
		t.Fatal(err)
	}
	forkRecs := collect(func(opts Options) (*Result, error) {
		return RunFromCheckpoint(ctx, opts, cp)
	})
	if !reflect.DeepEqual(coldRecs, forkRecs) {
		t.Fatalf("streamed records diverge: cold %d records, forked %d", len(coldRecs), len(forkRecs))
	}
}
