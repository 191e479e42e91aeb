package gdp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/runner"
)

// testSimOptions is a small 2-core shared-mode run with GDP-O attached.
func testSimOptions(t *testing.T) SimOptions {
	t.Helper()
	ws, err := GenerateWorkloads(2, MixH, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := NewGDPO(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	return SimOptions{
		Config:              ScaledConfig(2),
		Workload:            ws[0],
		InstructionsPerCore: 6000,
		IntervalCycles:      2000,
		Seed:                11,
		Accountants:         []Accountant{acct},
	}
}

func TestNewEngineOptionValidation(t *testing.T) {
	if _, err := NewEngine(WithJobs(-1)); err == nil {
		t.Error("negative jobs accepted")
	}
	if _, err := NewEngine(WithCache(nil)); err == nil {
		t.Error("nil cache accepted")
	}
	if _, err := NewEngine(WithScale(StudyScale{})); err == nil {
		t.Error("incomplete scale accepted")
	}
	e, err := NewEngine(WithJobs(2), WithCache(runner.NewCache()), WithScale(PaperScale()))
	if err != nil {
		t.Fatal(err)
	}
	if e.Cache() == nil {
		t.Error("engine has no cache")
	}
	if e.Scale().WorkloadsPerCell != PaperScale().WorkloadsPerCell {
		t.Error("WithScale not applied")
	}
	if e.Scale().Jobs != 2 {
		t.Error("engine jobs not reflected in Scale()")
	}
}

// TestEngineCheckpointFork pins the deprecated checkpoint stubs: a "fork" from
// Engine.Checkpoint is Engine.Run of the same options.
func TestEngineCheckpointFork(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, err := e.Run(ctx, testSimOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	prefix := testSimOptions(t)
	cp, err := e.Checkpoint(ctx, prefix, prefix.IntervalCycles*2)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cycle != prefix.IntervalCycles*2 {
		t.Errorf("checkpoint cycle = %d, want %d", cp.Cycle, prefix.IntervalCycles*2)
	}
	forked, err := e.RunFromCheckpoint(ctx, testSimOptions(t), cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, forked) {
		t.Error("RunFromCheckpoint diverges from Run")
	}
}

// TestEngineCheckpointRejectsBadInput: the stubs still reject what the
// removed implementation rejected up front.
func TestEngineCheckpointRejectsBadInput(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := testSimOptions(t)
	for _, cycle := range []uint64{0, opts.IntervalCycles / 2, opts.IntervalCycles*3 + 1} {
		if cp, err := e.Checkpoint(ctx, opts, cycle); err == nil {
			t.Errorf("Checkpoint at cycle %d accepted: %+v", cycle, cp)
		}
	}
	if _, err := e.RunFromCheckpoint(ctx, opts, nil); err == nil {
		t.Error("RunFromCheckpoint accepted a nil checkpoint")
	}
}

// TestEngineRunExpiredContext is the cancellation acceptance check: an
// already-expired context returns context.Canceled without completing a
// single interval.
func TestEngineRunExpiredContext(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := testSimOptions(t)
	intervals := 0
	opts.OnInterval = func(IntervalRecord) error { intervals++; return nil }
	res, err := e.Run(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
	if intervals != 0 {
		t.Errorf("%d intervals completed under an expired context", intervals)
	}
}

func TestEngineStreamYieldsRecords(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	seq, result := e.Stream(context.Background(), testSimOptions(t))
	records := 0
	for rec, err := range seq {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if rec.Core < 0 || rec.Core > 1 {
			t.Fatalf("bad core %d in streamed record", rec.Core)
		}
		if _, ok := rec.Estimates["GDP-O"]; !ok {
			t.Fatal("streamed record missing GDP-O estimate")
		}
		records++
	}
	if records == 0 {
		t.Fatal("stream yielded no records")
	}
	res, err := result()
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Cycles == 0 {
		t.Fatal("stream result missing")
	}
	if len(res.Intervals[0]) != 0 {
		t.Error("stream accumulated interval records in the result")
	}
}

// TestEngineStreamStopsAfterCancel is the second cancellation acceptance
// check: after ctx is cancelled no further records are yielded — the
// sequence ends with a single in-band context error.
func TestEngineStreamStopsAfterCancel(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := testSimOptions(t)
	opts.InstructionsPerCore = 50000
	opts.IntervalCycles = 1000

	seq, result := e.Stream(ctx, opts)
	var recordsAfterCancel, errorsYielded int
	cancelled := false
	for rec, err := range seq {
		if err != nil {
			errorsYielded++
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("stream error = %v, want context.Canceled", err)
			}
			continue
		}
		if cancelled {
			recordsAfterCancel++
		}
		_ = rec
		if !cancelled {
			cancelled = true
			cancel()
		}
	}
	// Cancellation lands at the next interval boundary; the records of the
	// interval in which cancel() ran may still arrive (one per core), nothing
	// beyond that.
	if recordsAfterCancel > 2 {
		t.Errorf("%d records yielded after cancellation", recordsAfterCancel)
	}
	if errorsYielded != 1 {
		t.Errorf("%d in-band errors, want exactly 1", errorsYielded)
	}
	if _, err := result(); !errors.Is(err, context.Canceled) {
		t.Errorf("result err = %v, want context.Canceled", err)
	}
}

func TestEngineStreamEarlyBreak(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	seq, result := e.Stream(context.Background(), testSimOptions(t))
	for range seq {
		break
	}
	if _, err := result(); !errors.Is(err, errStreamStopped) {
		t.Errorf("result err = %v, want errStreamStopped", err)
	}
}

func TestEngineRunPrivateExposesCycleBound(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := testSimOptions(t)
	res, err := e.Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	bench := opts.Workload.Benchmarks[0]
	// A generous explicit bound completes normally...
	priv, err := e.RunPrivate(ctx, opts.Config, bench, res.SamplePoints[0], opts.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(priv.At) != len(res.SamplePoints[0]) {
		t.Fatal("private reference misaligned")
	}
	// ...while a tiny bound cuts the run short: the padding keeps alignment
	// but the final sample cannot have reached the target.
	cut, err := e.RunPrivate(ctx, opts.Config, bench, res.SamplePoints[0], opts.Seed, 50)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Total.Cycles > 50 {
		t.Errorf("cycle bound ignored: ran %d cycles", cut.Total.Cycles)
	}
}

func TestEngineAccuracyStudyUsesEngineCache(t *testing.T) {
	cache := runner.NewCache()
	e, err := NewEngine(WithCache(cache), WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.AccuracyStudy(context.Background(), AccuracyOptions{
		Cores:               2,
		Mix:                 MixH,
		Workloads:           1,
		InstructionsPerCore: 2500,
		IntervalCycles:      2500,
		Seed:                3,
		Techniques:          []string{"GDP-O"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses == 0 {
		t.Error("engine cache saw no reference simulations")
	}
}

func TestEngineSweepCancelled(t *testing.T) {
	e, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.Sweep(ctx, SweepOptions{
		CoreCounts: []int{2}, Mixes: []MixKind{MixH},
		Workloads: 1, InstructionsPerCore: 2000, IntervalCycles: 2000,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
