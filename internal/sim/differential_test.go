package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/partition"
	"repro/internal/workload"
)

// scenarioOptions builds shared-run options for a named scenario with every
// transparent accounting technique attached (GDP, GDP-O, ITCA, PTCA), so the
// differential comparison covers the per-cycle probe machinery too.
func scenarioOptions(t *testing.T, name string, cores int) Options {
	t.Helper()
	sc, err := workload.ScenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sc.Workload(cores)
	if err != nil {
		t.Fatal(err)
	}
	gdp, err := accounting.NewGDP(cores, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	gdpo, err := accounting.NewGDP(cores, 32, true)
	if err != nil {
		t.Fatal(err)
	}
	itca, err := accounting.NewITCA(cores)
	if err != nil {
		t.Fatal(err)
	}
	ptca, err := accounting.NewPTCA(cores)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Config:              config.ScaledConfig(cores),
		Workload:            wl,
		InstructionsPerCore: 4000,
		IntervalCycles:      2500,
		Seed:                7,
		Accountants:         []accounting.Accountant{gdp, gdpo, itca, ptca},
	}
}

// TestFastPathMatchesReferenceAcrossScenarios is the differential determinism
// test of the event-driven driver: for every named scenario, the fast path
// must produce a Result deeply identical to the cycle-by-cycle reference path
// (same cycle counts, same per-core statistics, same per-interval estimates
// from every accounting technique).
func TestFastPathMatchesReferenceAcrossScenarios(t *testing.T) {
	for _, name := range workload.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			refOpts := scenarioOptions(t, name, 4)
			refOpts.Reference = true
			ref, err := Run(t.Context(), refOpts)
			if err != nil {
				t.Fatal(err)
			}

			fastOpts := scenarioOptions(t, name, 4)
			fast, err := Run(t.Context(), fastOpts)
			if err != nil {
				t.Fatal(err)
			}

			if ref.Cycles != fast.Cycles {
				t.Fatalf("cycles diverge: reference=%d fast=%d", ref.Cycles, fast.Cycles)
			}
			if !reflect.DeepEqual(ref.CoreStats, fast.CoreStats) {
				t.Fatalf("core stats diverge:\nref:  %+v\nfast: %+v", ref.CoreStats, fast.CoreStats)
			}
			if !reflect.DeepEqual(ref.SampleStats, fast.SampleStats) {
				t.Fatal("sample stats diverge")
			}
			if !reflect.DeepEqual(ref.SamplePoints, fast.SamplePoints) {
				t.Fatal("sample points diverge")
			}
			if !reflect.DeepEqual(ref.Intervals, fast.Intervals) {
				t.Fatal("interval records diverge")
			}
		})
	}
}

// TestFastPathMatchesReferenceWithASM covers the invasive accountant: ASM
// reprograms the memory controller on an epoch schedule, so its epoch
// boundaries must be honored as fast-forwarding events.
func TestFastPathMatchesReferenceWithASM(t *testing.T) {
	run := func(reference bool) *Result {
		t.Helper()
		opts := baseOptions(t, 4)
		asm, err := accounting.NewASM(4, 900, nil) // deliberately not interval-aligned
		if err != nil {
			t.Fatal(err)
		}
		opts.Accountants = []accounting.Accountant{asm}
		opts.Reference = reference
		res, err := Run(t.Context(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref, fast := run(true), run(false)
	if ref.Cycles != fast.Cycles {
		t.Fatalf("cycles diverge: reference=%d fast=%d", ref.Cycles, fast.Cycles)
	}
	if !reflect.DeepEqual(ref.CoreStats, fast.CoreStats) {
		t.Fatalf("core stats diverge:\nref:  %+v\nfast: %+v", ref.CoreStats, fast.CoreStats)
	}
	if !reflect.DeepEqual(ref.Intervals, fast.Intervals) {
		t.Fatal("interval records diverge")
	}
}

// TestFastPathMatchesReferenceWithPartitioner exercises the repartitioning
// path (LLC allocations change at interval boundaries, which reshapes the
// subsequent access stream).
func TestFastPathMatchesReferenceWithPartitioner(t *testing.T) {
	run := func(reference bool) *Result {
		t.Helper()
		opts := scenarioOptions(t, "cache-thrash", 4)
		opts.Partitioner = partition.MCP{}
		opts.PartitionSource = "GDP-O"
		opts.Reference = reference
		res, err := Run(t.Context(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref, fast := run(true), run(false)
	if ref.Cycles != fast.Cycles || !reflect.DeepEqual(ref.CoreStats, fast.CoreStats) {
		t.Fatalf("partitioned run diverges: ref cycles=%d fast cycles=%d", ref.Cycles, fast.Cycles)
	}
	if !reflect.DeepEqual(ref.Intervals, fast.Intervals) {
		t.Fatal("interval records diverge")
	}
}

// TestPrivateFastPathMatchesReference is the differential test for the
// private-mode (interference-free) runs that anchor every accuracy study.
func TestPrivateFastPathMatchesReference(t *testing.T) {
	for _, name := range workload.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			sc, err := workload.ScenarioByName(name)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := sc.Workload(1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config.ScaledConfig(1)
			points := []uint64{1000, 2500, 4000}
			ref, err := runPrivate(context.Background(), cfg, wl.Benchmarks[0], points, 11, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := RunPrivate(context.Background(), cfg, wl.Benchmarks[0], points, 11, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, fast) {
				t.Fatalf("private runs diverge:\nref:  %+v\nfast: %+v", ref, fast)
			}
		})
	}
}

// TestFastForwardActuallySkips guards the performance property itself: on the
// latency-bound scenario (serialized DRAM misses) the event-driven driver
// must need far fewer driver iterations than simulated cycles. It measures
// skipping indirectly through accountant Tick counts: the reference driver
// Ticks accountants every cycle, the fast driver only on processed cycles.
func TestFastForwardActuallySkips(t *testing.T) {
	counter := &tickCounter{}
	opts := scenarioOptions(t, "latency-bound", 4)
	opts.Accountants = append(opts.Accountants, counter)
	res, err := Run(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if counter.ticks == 0 {
		t.Fatal("accountant never ticked")
	}
	processed := counter.ticks
	if processed*10 > res.Cycles*9 {
		t.Errorf("fast driver processed %d of %d cycles (>90%%): fast-forwarding is not engaging",
			processed, res.Cycles)
	}
	t.Logf("processed %d of %d simulated cycles (%.1f%%)",
		processed, res.Cycles, 100*float64(processed)/float64(res.Cycles))
}

// tickCounter is a transparent accountant that counts driver-processed cycles
// (its Tick contributes no events, so it does not inhibit fast-forwarding).
type tickCounter struct{ ticks uint64 }

func (c *tickCounter) Name() string                                { return "tick-counter" }
func (c *tickCounter) Probe(int) cpu.Probe                         { return nil }
func (c *tickCounter) ObserveRequest(int, *mem.Request)            {}
func (c *tickCounter) Tick(uint64)                                 { c.ticks++ }
func (c *tickCounter) Estimate(int, cpu.Stats) accounting.Estimate { return accounting.Estimate{} }
func (c *tickCounter) EndInterval()                                {}
func (c *tickCounter) NextEvent(uint64) uint64                     { return accounting.NoEvent }
