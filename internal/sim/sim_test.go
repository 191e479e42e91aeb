package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
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
func mustEqualResults(t *testing.T, want, got *Result) {
	t.Helper()
	if want.Cycles != got.Cycles {
		t.Fatalf("cycles diverge: want=%d got=%d", want.Cycles, got.Cycles)
	}
	if !reflect.DeepEqual(want.CoreStats, got.CoreStats) {
		t.Fatalf("core stats diverge:\nwant: %+v\ngot:  %+v", want.CoreStats, got.CoreStats)
	}
	if !reflect.DeepEqual(want.SampleStats, got.SampleStats) {
		t.Fatal("sample stats diverge")
	}
	if !reflect.DeepEqual(want.SamplePoints, got.SamplePoints) {
		t.Fatalf("sample points diverge:\nwant: %v\ngot:  %v", want.SamplePoints, got.SamplePoints)
	}
	if !reflect.DeepEqual(want.Intervals, got.Intervals) {
		t.Fatal("interval records diverge")
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Fatal("results are not byte-identical under JSON encoding")
	}
}

// testWorkload builds a small workload of the requested size from named
// benchmarks.
func testWorkload(t *testing.T, names ...string) workload.Workload {
	t.Helper()
	w := workload.Workload{ID: "test"}
	for _, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		w.Benchmarks = append(w.Benchmarks, b)
	}
	return w
}

func baseOptions(t *testing.T, cores int) Options {
	t.Helper()
	names := []string{"omnetpp", "lbm", "art", "sphinx3", "ammp", "galgel", "apsi", "facerec"}[:cores]
	return Options{
		Config:              config.ScaledConfig(cores),
		Workload:            testWorkload(t, names...),
		InstructionsPerCore: 6000,
		IntervalCycles:      5000,
		Seed:                1,
	}
}

func TestOptionsValidation(t *testing.T) {
	opts := baseOptions(t, 2)
	opts.Config = nil
	if _, err := Run(t.Context(), opts); err == nil {
		t.Error("nil config accepted")
	}
	opts = baseOptions(t, 2)
	opts.Workload = testWorkload(t, "lbm")
	if _, err := Run(t.Context(), opts); err == nil {
		t.Error("workload/core mismatch accepted")
	}
	opts = baseOptions(t, 2)
	opts.InstructionsPerCore = 0
	if _, err := Run(t.Context(), opts); err == nil {
		t.Error("zero instruction budget accepted")
	}
	opts = baseOptions(t, 2)
	opts.IntervalCycles = 0
	if _, err := Run(t.Context(), opts); err == nil {
		t.Error("zero interval accepted")
	}
}

// TestWorkersValidation pins the inert-field contract of Options.Workers:
// negative values are rejected, and every other value produces the Result of
// the one step loop.
func TestWorkersValidation(t *testing.T) {
	opts := scenarioOptions(t, "bandwidth-bound", 4)
	opts.Workers = -1
	if _, err := Run(t.Context(), opts); err == nil {
		t.Fatal("negative Workers accepted")
	}

	var want *Result
	for _, workers := range []int{0, 2, 64} {
		opts := scenarioOptions(t, "bandwidth-bound", 4)
		opts.Workers = workers
		got, err := Run(t.Context(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(want, got) {
			t.Fatalf("Workers=%d changed the Result", workers)
		}
	}
}

// TestDefaultMaxCyclesSaturates pins the overflow fix: a huge instruction
// sample must select an effectively unbounded default cycle budget instead of
// silently wrapping to a tiny one (which produced empty results).
func TestDefaultMaxCyclesSaturates(t *testing.T) {
	if got := defaultMaxCycles(10); got != 5000 {
		t.Fatalf("defaultMaxCycles(10) = %d, want 5000", got)
	}
	threshold := uint64(math.MaxUint64 / defaultMaxCyclesMultiplier)
	if got := defaultMaxCycles(threshold); got == math.MaxUint64 || got < threshold {
		t.Fatalf("defaultMaxCycles at the threshold wrapped: %d", got)
	}
	if got := defaultMaxCycles(threshold + 1); got != math.MaxUint64 {
		t.Fatalf("defaultMaxCycles(threshold+1) = %d, want saturation", got)
	}
	opts := scenarioOptions(t, "bandwidth-bound", 4)
	opts.InstructionsPerCore = math.MaxUint64 / 3
	st, err := startRun(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.maxCycles != math.MaxUint64 {
		t.Fatalf("maxCycles = %d for a huge sample, want saturation at MaxUint64", st.maxCycles)
	}
}

func TestSharedRunCompletes(t *testing.T) {
	res, err := Run(t.Context(), baseOptions(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("run did not advance")
	}
	for i, st := range res.SampleStats {
		if st.Instructions < 6000 {
			t.Errorf("core %d committed only %d instructions", i, st.Instructions)
		}
		if st.CommitCycles+st.StallInd+st.StallPMS+st.StallSMS+st.StallOther != st.Cycles {
			t.Errorf("core %d cycle taxonomy inconsistent", i)
		}
	}
	if len(res.Intervals[0]) == 0 || len(res.SamplePoints[0]) == 0 {
		t.Error("no interval records collected")
	}
	for _, iv := range res.Intervals[0] {
		if iv.EndInstructions < iv.StartInstructions {
			t.Error("interval instruction counts not monotone")
		}
	}
}

func TestSharedRunWithAccountants(t *testing.T) {
	opts := baseOptions(t, 2)
	gdp, _ := accounting.NewGDP(2, 32, false)
	gdpo, _ := accounting.NewGDP(2, 32, true)
	itca, _ := accounting.NewITCA(2)
	ptca, _ := accounting.NewPTCA(2)
	opts.Accountants = []accounting.Accountant{gdp, gdpo, itca, ptca}
	res, err := Run(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	foundEstimates := 0
	for _, rec := range res.Intervals[0] {
		for _, name := range []string{"GDP", "GDP-O", "ITCA", "PTCA"} {
			est, ok := rec.Estimates[name]
			if !ok {
				t.Fatalf("missing estimate for %s", name)
			}
			if rec.Shared.Instructions > 0 && est.PrivateCPI > 0 {
				foundEstimates++
			}
		}
	}
	if foundEstimates == 0 {
		t.Error("no positive estimates produced over the whole run")
	}
}

func TestGDPEstimatesBelowSharedCPIUnderContention(t *testing.T) {
	// With several memory-intensive co-runners, the private-mode CPI estimate
	// of a sound accounting technique should on average be at most the shared
	// CPI (interference only ever slows an application down).
	opts := baseOptions(t, 4)
	gdp, _ := accounting.NewGDP(4, 32, false)
	opts.Accountants = []accounting.Accountant{gdp}
	opts.InstructionsPerCore = 8000
	res, err := Run(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var below, above int
	for core := range res.Intervals {
		for _, rec := range res.Intervals[core] {
			if rec.Shared.Instructions == 0 {
				continue
			}
			est := rec.Estimates["GDP"]
			if est.PrivateCPI <= 0 {
				continue
			}
			if est.PrivateCPI <= rec.Shared.CPI()*1.05 {
				below++
			} else {
				above++
			}
		}
	}
	if below == 0 {
		t.Fatal("no usable GDP estimates recorded")
	}
	if above > below {
		t.Errorf("GDP estimated private CPI above shared CPI in %d of %d intervals", above, above+below)
	}
}

func TestASMRunIsInvasive(t *testing.T) {
	// Attaching ASM must actually change the memory controller's behaviour;
	// we check it perturbs at least one core's cycle count relative to a run
	// without accountants.
	base := baseOptions(t, 2)
	base.Seed = 77
	plain, err := Run(t.Context(), base)
	if err != nil {
		t.Fatal(err)
	}
	withASM := baseOptions(t, 2)
	withASM.Seed = 77
	asm, _ := accounting.NewASM(2, 2000)
	withASM.Accountants = []accounting.Accountant{asm}
	asmRes, err := Run(t.Context(), withASM)
	if err != nil {
		t.Fatal(err)
	}
	// machine.start binds ASM to the run's memory controller, whose priority
	// rotation then reorders DRAM service.
	if len(asmRes.Intervals[0]) == 0 || len(plain.Intervals[0]) == 0 {
		t.Error("interval records missing")
	}
	if reflect.DeepEqual(asmRes.CoreStats, plain.CoreStats) {
		t.Error("attaching ASM left every core's statistics unchanged")
	}
}

func TestPartitionedRunAppliesAllocations(t *testing.T) {
	opts := baseOptions(t, 2)
	gdp, _ := accounting.NewGDP(2, 32, false)
	opts.Accountants = []accounting.Accountant{gdp}
	opts.Partitioner = partition.MCP{}
	res, err := Run(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("partitioned run did not advance")
	}
	for i, st := range res.SampleStats {
		if st.Instructions < opts.InstructionsPerCore {
			t.Errorf("core %d starved under partitioning: %d instructions", i, st.Instructions)
		}
	}
}

func TestUCPPartitionedRun(t *testing.T) {
	opts := baseOptions(t, 2)
	opts.Partitioner = partition.UCP{}
	res, err := Run(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.SampleStats {
		if st.Instructions < opts.InstructionsPerCore {
			t.Errorf("core %d starved under UCP: %d instructions", i, st.Instructions)
		}
	}
}

func TestRunPrivateAlignment(t *testing.T) {
	opts := baseOptions(t, 2)
	res, err := Run(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	bench := opts.Workload.Benchmarks[0]
	priv, err := RunPrivate(t.Context(), opts.Config, bench, res.SamplePoints[0], opts.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if priv.Benchmark != bench.Name {
		t.Error("wrong benchmark name")
	}
	if len(priv.At) != len(res.SamplePoints[0]) {
		t.Fatalf("sample alignment mismatch: %d vs %d", len(priv.At), len(res.SamplePoints[0]))
	}
	if len(priv.CPLAt) != len(priv.At) || len(priv.OverlapAt) != len(priv.At) {
		t.Fatal("reference CPL/overlap not aligned")
	}
	// Private-mode execution of the same instructions should take no more
	// cycles than the shared-mode execution (no interference).
	sharedCycles := res.SampleStats[0].Cycles
	privCycles := priv.At[len(priv.At)-1].Cycles
	if privCycles > sharedCycles {
		t.Errorf("private mode (%d cycles) slower than shared mode (%d cycles)", privCycles, sharedCycles)
	}
	// Instruction counts at sample points must be monotone.
	for i := 1; i < len(priv.At); i++ {
		if priv.At[i].Instructions < priv.At[i-1].Instructions {
			t.Error("private sample statistics not monotone")
		}
	}
}

func TestRunPrivateValidation(t *testing.T) {
	cfg := config.ScaledConfig(2)
	cfg.Cores = 0
	b, _ := workload.ByName("lbm")
	if _, err := RunPrivate(t.Context(), cfg, b, []uint64{100}, 1, 0); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSeedReproducibility(t *testing.T) {
	a, err := Run(t.Context(), baseOptions(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(t.Context(), baseOptions(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("identical options should reproduce identical runs: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	for i := range a.CoreStats {
		if a.CoreStats[i].Instructions != b.CoreStats[i].Instructions {
			t.Error("per-core instruction counts differ between identical runs")
		}
	}
}

func TestRunContextExpiredBeforeFirstInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, baseOptions(t, 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
}

func TestRunContextCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := baseOptions(t, 2)
	opts.InstructionsPerCore = 50000
	opts.IntervalCycles = 1000
	intervals := 0
	opts.OnInterval = func(IntervalRecord) error {
		intervals++
		if intervals == 2 {
			cancel()
		}
		return nil
	}
	_, err := Run(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is observed at the next interval boundary: at most one more
	// interval's worth of records (one per core) may arrive after cancel().
	if intervals > 2+2 {
		t.Errorf("%d interval records delivered after cancellation", intervals)
	}
}

func TestOnIntervalStreamsAndDiscards(t *testing.T) {
	opts := baseOptions(t, 2)
	gdpo, _ := accounting.NewGDP(2, 32, true)
	opts.Accountants = []accounting.Accountant{gdpo}
	opts.DiscardIntervals = true
	streamed := 0
	opts.OnInterval = func(rec IntervalRecord) error {
		// The record's Estimates map is valid until the call returns.
		if _, ok := rec.Estimates["GDP-O"]; !ok {
			t.Error("streamed record missing estimates")
		}
		streamed++
		return nil
	}
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if streamed == 0 {
		t.Fatal("no records streamed")
	}
	for core := range res.Intervals {
		if len(res.Intervals[core]) != 0 {
			t.Error("DiscardIntervals kept interval records")
		}
		if len(res.SamplePoints[core]) == 0 {
			t.Error("DiscardIntervals dropped sample points")
		}
	}
}

func TestOnIntervalErrorAbortsRun(t *testing.T) {
	opts := baseOptions(t, 2)
	opts.InstructionsPerCore = 50000
	opts.IntervalCycles = 1000
	sentinel := errors.New("stop here")
	opts.OnInterval = func(IntervalRecord) error { return sentinel }
	_, err := Run(context.Background(), opts)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestRunPrivateContextCancelled(t *testing.T) {
	opts := baseOptions(t, 2)
	res, err := Run(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunPrivate(ctx, opts.Config, opts.Workload.Benchmarks[0], res.SamplePoints[0], opts.Seed, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
