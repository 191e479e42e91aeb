package gdp

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// The benchmarks in this file regenerate the paper's tables and figures, one
// bench per artifact. They run at a reduced scale so that `go test -bench=.`
// finishes in minutes; pass -timeout and edit benchScale (or use cmd/gdpsim
// with -paper-scale) for larger populations. Results are reported both as
// wall-clock time per regeneration and, via b.ReportMetric, as the headline
// quantity of the corresponding figure.

// benchScale is the workload population used by the figure benchmarks.
func benchScale() StudyScale {
	return StudyScale{
		WorkloadsPerCell:    1,
		InstructionsPerCore: 4000,
		IntervalCycles:      4000,
		Seed:                42,
		CoreCounts:          []int{2, 4},
	}
}

// BenchmarkTable1Config regenerates Table I (the CMP model parameters).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cores := range []int{2, 4, 8} {
			rows := experiments.Table1(cores)
			if len(rows) == 0 {
				b.Fatal("empty Table I")
			}
		}
	}
}

// BenchmarkFigure3IPCAccuracy regenerates Figure 3a: the average absolute RMS
// error of the private-mode IPC estimates for every technique.
func BenchmarkFigure3IPCAccuracy(b *testing.B) {
	engine := newTestEngine(b)
	defer reportSharedRuns(b, engine.registry)()
	for i := 0; i < b.N; i++ {
		res, err := engine.AccuracyStudy(context.Background(), AccuracyOptions{
			Cores:               4,
			Mix:                 MixH,
			Workloads:           1,
			InstructionsPerCore: benchScale().InstructionsPerCore,
			IntervalCycles:      benchScale().IntervalCycles,
			Seed:                benchScale().Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if gdp := res.Technique("GDP"); gdp != nil {
			b.ReportMetric(gdp.MeanIPCAbsRMS, "gdp-ipc-rms")
		}
		if asm := res.Technique("ASM"); asm != nil {
			b.ReportMetric(asm.MeanIPCAbsRMS, "asm-ipc-rms")
		}
	}
}

// BenchmarkFigure3StallAccuracy regenerates Figure 3b: the SMS-load stall
// cycle estimation errors.
func BenchmarkFigure3StallAccuracy(b *testing.B) {
	engine := newTestEngine(b)
	for i := 0; i < b.N; i++ {
		res, err := engine.AccuracyStudy(context.Background(), AccuracyOptions{
			Cores:               4,
			Mix:                 MixM,
			Workloads:           1,
			InstructionsPerCore: benchScale().InstructionsPerCore,
			IntervalCycles:      benchScale().IntervalCycles,
			Seed:                benchScale().Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if gdpo := res.Technique("GDP-O"); gdpo != nil {
			b.ReportMetric(gdpo.MeanStallAbsRMS, "gdpo-stall-rms")
		}
		if ptca := res.Technique("PTCA"); ptca != nil {
			b.ReportMetric(ptca.MeanStallAbsRMS, "ptca-stall-rms")
		}
	}
}

// BenchmarkFigure4Distribution regenerates Figure 4: the sorted per-benchmark
// stall-error distributions across core counts.
func BenchmarkFigure4Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig3, err := experiments.Figure3(b.Context(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		fig4 := experiments.Figure4(fig3)
		total := 0
		for _, panel := range fig4.Panels {
			for _, s := range panel.Series {
				total += len(s.Sorted)
			}
		}
		b.ReportMetric(float64(total), "error-samples")
	}
}

// BenchmarkFigure5Components regenerates Figure 5: the CPL, overlap and
// latency component error distributions of GDP/GDP-O.
func BenchmarkFigure5Components(b *testing.B) {
	engine := newTestEngine(b)
	for i := 0; i < b.N; i++ {
		res, err := engine.AccuracyStudy(context.Background(), AccuracyOptions{
			Cores:               4,
			Mix:                 MixH,
			Workloads:           1,
			InstructionsPerCore: benchScale().InstructionsPerCore,
			IntervalCycles:      benchScale().IntervalCycles,
			Seed:                benchScale().Seed,
			Techniques:          []string{"GDP-O"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if n := len(res.Components.CPLRelRMS); n > 0 {
			sum := 0.0
			for _, v := range res.Components.CPLRelRMS {
				sum += v
			}
			b.ReportMetric(sum/float64(n), "cpl-rel-rms")
		}
	}
}

// BenchmarkFigure6STP regenerates Figure 6: system throughput under the five
// LLC management policies.
func BenchmarkFigure6STP(b *testing.B) {
	engine := newTestEngine(b)
	defer reportSharedRuns(b, engine.registry)()
	for i := 0; i < b.N; i++ {
		res, err := engine.PartitioningStudy(context.Background(), PartitioningOptions{
			Cores:               4,
			Mix:                 MixH,
			Workloads:           1,
			InstructionsPerCore: benchScale().InstructionsPerCore,
			IntervalCycles:      benchScale().IntervalCycles,
			Seed:                benchScale().Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AverageSTP["MCP"], "mcp-stp")
		b.ReportMetric(res.AverageSTP["LRU"], "lru-stp")
		b.ReportMetric(res.AverageSTP["ASM"], "asm-stp")
	}
}

// BenchmarkFigure7Sensitivity regenerates all six panels of the Figure 7
// sensitivity study.
func BenchmarkFigure7Sensitivity(b *testing.B) {
	reg := telemetry.NewRegistry()
	scale := benchScale()
	scale.Instr = experiments.NewInstrumentation(reg)
	defer reportSharedRuns(b, reg)()
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure7(b.Context(), scale)
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 6 {
			b.Fatalf("Figure 7 has %d panels, want 6", len(panels))
		}
	}
}

// reportSharedRuns returns a func that reports the shared-mode runs reg
// counted since the call as shared-runs/op, a count that does not depend on
// the machine.
func reportSharedRuns(b *testing.B, reg *telemetry.Registry) func() {
	before := simRuns(b, reg)
	return func() {
		b.ReportMetric(float64(simRuns(b, reg)-before)/float64(b.N), "shared-runs/op")
	}
}

// BenchmarkAblationPRBSize sweeps the Pending Request Buffer size (the
// Figure 7e ablation of the PRB eviction design decision).
func BenchmarkAblationPRBSize(b *testing.B) {
	engine := newTestEngine(b)
	for _, entries := range []int{8, 32, 128} {
		b.Run(sizeName(entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := engine.AccuracyStudy(context.Background(), AccuracyOptions{
					Cores:               4,
					Mix:                 MixH,
					Workloads:           1,
					InstructionsPerCore: benchScale().InstructionsPerCore,
					IntervalCycles:      benchScale().IntervalCycles,
					Seed:                benchScale().Seed,
					PRBEntries:          entries,
					Techniques:          []string{"GDP-O"},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Technique("GDP-O").MeanIPCAbsRMS, "ipc-rms")
			}
		})
	}
}

func sizeName(entries int) string {
	switch entries {
	case 8:
		return "prb8"
	case 32:
		return "prb32"
	default:
		return "prb128"
	}
}

// BenchmarkAccuracySweep measures the parallel speedup of the runner
// subsystem: the same accuracy study fanned out on one worker versus all
// CPUs (at least two, so the pool is exercised even on a single-CPU
// machine). A fresh in-memory cache per iteration keeps the comparison
// honest (no cross-iteration reference reuse).
func BenchmarkAccuracySweep(b *testing.B) {
	engine := newTestEngine(b)
	parallel := runtime.NumCPU()
	if parallel < 2 {
		parallel = 2
	}
	for _, jobs := range []int{1, parallel} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := engine.AccuracyStudy(context.Background(), AccuracyOptions{
					Cores:               4,
					Mix:                 MixH,
					Workloads:           4,
					InstructionsPerCore: benchScale().InstructionsPerCore,
					IntervalCycles:      benchScale().IntervalCycles,
					Seed:                benchScale().Seed,
					CellConfig:          experiments.CellConfig{Jobs: jobs, Cache: runner.NewCache()},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Techniques) == 0 {
					b.Fatal("empty study")
				}
			}
		})
	}
}

// BenchmarkSweepGrid runs Engine.Sweep over a small grid of every cell kind
// (accuracy cells at two PRB sizes, partitioning cells under LRU and MCP, and
// scenario cells) on a fresh in-memory cache per iteration, so every cell and
// every private-mode reference is simulated: with -benchmem its B/op is a
// researcher's sweep write path without the disk, and `make bench-cpu`
// leaves its alloc-space profile.
func BenchmarkSweepGrid(b *testing.B) {
	engine := newTestEngine(b)
	var cells int
	for i := 0; i < b.N; i++ {
		res, err := engine.Sweep(context.Background(), SweepOptions{
			CoreCounts:          []int{2, 4},
			Mixes:               []MixKind{MixH},
			PRBSizes:            []int{16, 32},
			Policies:            []string{"LRU", "MCP"},
			Scenarios:           []string{"bursty"},
			Workloads:           1,
			InstructionsPerCore: 1500,
			IntervalCycles:      1000,
			Seed:                42,
			CellConfig:          experiments.CellConfig{Cache: runner.NewCache()},
		})
		if err != nil {
			b.Fatal(err)
		}
		cells = res.Cells
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// BenchmarkSimulatorThroughput measures the raw simulator speed (cycles per
// second of a 4-core shared-mode run); it is the cost driver of every figure.
func BenchmarkSimulatorThroughput(b *testing.B) {
	engine := newTestEngine(b)
	ws, err := GenerateWorkloads(4, MixH, 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	acct, err := NewGDPO(4, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(context.Background(), SimOptions{
			Config:              ScaledConfig(4),
			Workload:            ws[0],
			InstructionsPerCore: 3000,
			IntervalCycles:      3000,
			Seed:                int64(i),
			Accountants:         []Accountant{acct},
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/run")
}

// BenchmarkEstimateScenario measures end-to-end scenario estimation through
// Engine.Estimate (the hot path of the service layer), one sub-benchmark per
// named scenario, reporting simulated cycles per second.
func BenchmarkEstimateScenario(b *testing.B) {
	engine := newTestEngine(b)
	for _, name := range ScenarioNames() {
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := engine.Estimate(b.Context(), &EstimateRequest{
					Scenario:            name,
					Cores:               4,
					InstructionsPerCore: 4000,
					IntervalCycles:      2000,
					Seed:                42,
				})
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkEngineStream measures the streaming interval path: the simulation
// advances in the consumer's goroutine and every IntervalRecord is yielded as
// soon as its interval completes. One sub-benchmark per named scenario.
func BenchmarkEngineStream(b *testing.B) {
	engine := newTestEngine(b)
	for _, name := range ScenarioNames() {
		b.Run(name, func(b *testing.B) {
			sc, err := ScenarioByName(name)
			if err != nil {
				b.Fatal(err)
			}
			wl, err := sc.Workload(4)
			if err != nil {
				b.Fatal(err)
			}
			var records, cycles uint64
			for i := 0; i < b.N; i++ {
				acct, err := NewGDPO(4, 32)
				if err != nil {
					b.Fatal(err)
				}
				seq, result := engine.Stream(context.Background(), SimOptions{
					Config:              ScaledConfig(4),
					Workload:            wl,
					InstructionsPerCore: 4000,
					IntervalCycles:      2000,
					Seed:                42,
					Accountants:         []Accountant{acct},
				})
				for rec, err := range seq {
					if err != nil {
						b.Fatal(err)
					}
					records++
					_ = rec
				}
				res, err := result()
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			if records == 0 {
				b.Fatal("stream yielded no interval records")
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
			b.ReportMetric(float64(records)/float64(b.N), "records/run")
		})
	}
}

// BenchmarkWorkloadGeneration measures the paper-scale workload population
// generation (Section VI methodology): 30 H, 15 M and 5 L workloads per core
// count.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cores := range []int{2, 4, 8} {
			for _, mix := range []struct {
				kind  MixKind
				count int
			}{{MixH, 30}, {MixM, 15}, {MixL, 5}} {
				ws, err := GenerateWorkloads(cores, mix.kind, mix.count, int64(i)+int64(mix.kind)*1000)
				if err != nil {
					b.Fatal(err)
				}
				if len(ws) != mix.count {
					b.Fatalf("expected %d workloads, got %d", mix.count, len(ws))
				}
			}
		}
	}
}
