package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/workload"
)

// StudyScale controls how much work the figure drivers do. The paper's full
// population (150 workloads, 100M-instruction samples) is far beyond what a
// unit-test or benchmark run should attempt, so the drivers accept a scale
// with sensible defaults and let the CLI raise it.
type StudyScale struct {
	WorkloadsPerCell    int
	InstructionsPerCore uint64
	IntervalCycles      uint64
	Seed                int64
	CoreCounts          []int
	// Jobs is the runner worker-pool width used by every driver that accepts
	// this scale (0 = runtime.NumCPU(), 1 = serial). Output is identical for
	// any value.
	Jobs int
	// Cache memoizes the private-mode reference runs of every driver that
	// accepts this scale (nil = no memoization).
	Cache *runner.Cache
	// Progress, when non-nil, receives one runner event per completed
	// simulation job.
	Progress runner.ProgressFunc
	// Instr, when non-nil, attaches telemetry to every driver that accepts
	// this scale. Purely observational.
	Instr *Instrumentation
}

// DefaultScale returns the quick-run scale used by tests and benchmarks.
func DefaultScale() StudyScale {
	return StudyScale{
		WorkloadsPerCell:    2,
		InstructionsPerCore: 5000,
		IntervalCycles:      4000,
		Seed:                42,
		CoreCounts:          []int{2, 4},
	}
}

// PaperScale returns a scale closer to the paper's population (still using
// the scaled memory hierarchy and synthetic benchmarks).
func PaperScale() StudyScale {
	return StudyScale{
		WorkloadsPerCell:    10,
		InstructionsPerCore: 30000,
		IntervalCycles:      20000,
		Seed:                42,
		CoreCounts:          []int{2, 4, 8},
	}
}

// Figure3Cell is one bar group of Figures 3a/3b: a core count and category
// with the per-technique mean RMS errors.
type Figure3Cell struct {
	Label       string
	IPCAbsRMS   map[string]float64
	StallAbsRMS map[string]float64
	IPCRelRMS   map[string]float64
}

// Figure3Result covers Figures 3a and 3b (and feeds Figures 4 and 5, whose
// raw material is collected in the same runs).
type Figure3Result struct {
	Cells []Figure3Cell
	// Raw keeps the full per-cell results for Figures 4 and 5.
	Raw []*AccuracyResult
}

// mixes lists the single-class categories of the accuracy study.
var mixes = []workload.MixKind{workload.MixH, workload.MixM, workload.MixL}

// Figure3 runs the accounting-accuracy study for every core count and
// workload category of the scale, with ctx plumbed into every study cell.
func Figure3(ctx context.Context, scale StudyScale) (*Figure3Result, error) {
	out := &Figure3Result{}
	for _, cores := range scale.CoreCounts {
		for _, mix := range mixes {
			res, err := AccuracyStudy(ctx, AccuracyOptions{
				Cores:               cores,
				Mix:                 mix,
				Workloads:           scale.WorkloadsPerCell,
				InstructionsPerCore: scale.InstructionsPerCore,
				IntervalCycles:      scale.IntervalCycles,
				Seed:                scale.Seed,
				Jobs:                scale.Jobs,
				Cache:               scale.Cache,
				Progress:            scale.Progress,
				Instr:               scale.Instr,
			})
			if err != nil {
				return nil, err
			}
			cell := Figure3Cell{
				Label:       res.Label,
				IPCAbsRMS:   map[string]float64{},
				StallAbsRMS: map[string]float64{},
				IPCRelRMS:   map[string]float64{},
			}
			for _, t := range res.Techniques {
				cell.IPCAbsRMS[t.Technique] = t.MeanIPCAbsRMS
				cell.StallAbsRMS[t.Technique] = t.MeanStallAbsRMS
				cell.IPCRelRMS[t.Technique] = t.MeanIPCRelRMS
			}
			out.Cells = append(out.Cells, cell)
			out.Raw = append(out.Raw, res)
		}
	}
	return out, nil
}

// Render prints the Figure 3 tables in the paper's row/column layout.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	writeTable := func(title string, pick func(Figure3Cell) map[string]float64) {
		fmt.Fprintf(&b, "%s\n", title)
		fmt.Fprintf(&b, "%-10s", "cell")
		for _, t := range TechniqueNames {
			fmt.Fprintf(&b, "%12s", t)
		}
		b.WriteString("\n")
		for _, cell := range r.Cells {
			fmt.Fprintf(&b, "%-10s", cell.Label)
			for _, t := range TechniqueNames {
				fmt.Fprintf(&b, "%12.4g", pick(cell)[t])
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	writeTable("Figure 3a: average absolute RMS error of private-mode IPC estimates", func(c Figure3Cell) map[string]float64 { return c.IPCAbsRMS })
	writeTable("Figure 3b: average absolute RMS error of SMS-load stall cycle estimates", func(c Figure3Cell) map[string]float64 { return c.StallAbsRMS })
	return b.String()
}

// Figure4Series is the sorted per-benchmark stall-cycle RMS error
// distribution of one technique for one core count (one line of Figure 4).
type Figure4Series struct {
	Technique string
	Sorted    []float64
}

// Figure4Result groups the distributions by core count.
type Figure4Result struct {
	PerCoreCount map[int][]Figure4Series
}

// Figure4 reduces the raw accuracy results to the sorted error distributions
// of Figure 4.
func Figure4(fig3 *Figure3Result) *Figure4Result {
	out := &Figure4Result{PerCoreCount: map[int][]Figure4Series{}}
	byCore := map[int]map[string][]float64{}
	for _, res := range fig3.Raw {
		cores := res.Options.Cores
		if byCore[cores] == nil {
			byCore[cores] = map[string][]float64{}
		}
		for _, t := range res.Techniques {
			for _, e := range t.PerBenchmark {
				byCore[cores][t.Technique] = append(byCore[cores][t.Technique], e.StallAbsRMS)
			}
		}
	}
	for cores, m := range byCore {
		var series []Figure4Series
		for _, t := range TechniqueNames {
			if len(m[t]) == 0 {
				continue
			}
			series = append(series, Figure4Series{Technique: t, Sorted: metrics.SortedAscending(m[t])})
		}
		sort.Slice(series, func(i, j int) bool { return series[i].Technique < series[j].Technique })
		out.PerCoreCount[cores] = series
	}
	return out
}

// Figure5Result holds the component-error distribution summaries of Figure 5
// (violin plots of the CPL, overlap and latency estimate errors).
type Figure5Result struct {
	PerCell map[string]struct {
		CPL     metrics.DistributionSummary
		Overlap metrics.DistributionSummary
		Latency metrics.DistributionSummary
	}
}

// Figure5 reduces the raw accuracy results to component error summaries.
func Figure5(fig3 *Figure3Result) *Figure5Result {
	out := &Figure5Result{PerCell: map[string]struct {
		CPL     metrics.DistributionSummary
		Overlap metrics.DistributionSummary
		Latency metrics.DistributionSummary
	}{}}
	for _, res := range fig3.Raw {
		out.PerCell[res.Label] = struct {
			CPL     metrics.DistributionSummary
			Overlap metrics.DistributionSummary
			Latency metrics.DistributionSummary
		}{
			CPL:     metrics.Summarize(res.Components.CPLRelRMS),
			Overlap: metrics.Summarize(res.Components.OverlapRelRMS),
			Latency: metrics.Summarize(res.Components.LatencyRelRMS),
		}
	}
	return out
}

// Table1 returns the Table I parameter listing for a core count.
func Table1(cores int) []config.TableRow {
	return config.PaperConfig(cores).TableI()
}

// Headline summarizes the paper's headline claims from a Figure 3 result:
// the ratio of ASM's stall/IPC RMS error to GDP's (the paper reports 7.4x for
// 4 cores) and the GDP-O vs GDP stall-error reduction.
type Headline struct {
	Label                string
	ASMOverGDPIPCError   float64
	GDPOverGDPOStallGain float64
}

// Headlines derives the headline ratios for every cell that contains the
// needed techniques.
func Headlines(fig3 *Figure3Result) []Headline {
	var out []Headline
	for _, cell := range fig3.Cells {
		h := Headline{Label: cell.Label}
		if gdp := cell.IPCRelRMS["GDP"]; gdp > 0 {
			h.ASMOverGDPIPCError = cell.IPCRelRMS["ASM"] / gdp
		}
		if gdpo := cell.StallAbsRMS["GDP-O"]; gdpo > 0 {
			h.GDPOverGDPOStallGain = cell.StallAbsRMS["GDP"] / gdpo
		}
		out = append(out, h)
	}
	return out
}
