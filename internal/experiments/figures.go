package experiments

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// StudyScale controls how much work the figure drivers do. The paper's full
// population (150 workloads, 100M-instruction samples) is far beyond what a
// unit-test or benchmark run should attempt, so the drivers accept a scale
// with sensible defaults and let the CLI raise it. The embedded CellConfig
// is the execution environment every study cell of the figure runs in.
type StudyScale struct {
	WorkloadsPerCell    int
	InstructionsPerCore uint64
	IntervalCycles      uint64
	Seed                int64
	CoreCounts          []int
	CellConfig
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

// accuracyOptions returns the scale's accuracy study of one core count and category.
func (s StudyScale) accuracyOptions(cores int, mix workload.MixKind) AccuracyOptions {
	return AccuracyOptions{Cores: cores, Mix: mix, Workloads: s.WorkloadsPerCell,
		InstructionsPerCore: s.InstructionsPerCore, IntervalCycles: s.IntervalCycles, Seed: s.Seed}
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
	var studies []accuracyStudy
	for _, cores := range scale.CoreCounts {
		for _, mix := range mixes {
			studies = append(studies, accuracyStudy{opts: scale.accuracyOptions(cores, mix)})
		}
	}
	raw, err := runStudies(ctx, scale.CellConfig, studies)
	if err != nil {
		return nil, err
	}
	out := &Figure3Result{Raw: raw}
	for _, res := range raw {
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
	}
	return out, nil
}

// Render prints the Figure 3 tables in the paper's row/column layout.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	writeTable := func(title string, pick func(Figure3Cell) map[string]float64) {
		fmt.Fprintf(&b, "%s\n", title)
		fmt.Fprintf(&b, "%-10s", "cell")
		for _, t := range accounting.Names {
			fmt.Fprintf(&b, "%12s", t)
		}
		b.WriteString("\n")
		for _, cell := range r.Cells {
			fmt.Fprintf(&b, "%-10s", cell.Label)
			for _, t := range accounting.Names {
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

// Figure4Panel is one core count's distributions, one series per technique
// in name order.
type Figure4Panel struct {
	Cores  int
	Series []Figure4Series
}

// Figure4Result holds one panel per core count, in Figure 3's order.
type Figure4Result struct {
	Panels []Figure4Panel
}

// Figure4 reduces the raw accuracy results to the sorted error distributions
// of Figure 4.
func Figure4(fig3 *Figure3Result) *Figure4Result {
	byCore := map[int]map[string][]float64{}
	var order []int
	for _, res := range fig3.Raw {
		cores := res.Options.Cores
		if byCore[cores] == nil {
			byCore[cores] = map[string][]float64{}
			order = append(order, cores)
		}
		for _, t := range res.Techniques {
			for _, e := range t.PerBenchmark {
				byCore[cores][t.Technique] = append(byCore[cores][t.Technique], e.StallAbsRMS)
			}
		}
	}
	out := &Figure4Result{}
	for _, cores := range order {
		panel := Figure4Panel{Cores: cores}
		for _, t := range slices.Sorted(maps.Keys(byCore[cores])) {
			panel.Series = append(panel.Series, Figure4Series{Technique: t, Sorted: metrics.SortedAscending(byCore[cores][t])})
		}
		out.Panels = append(out.Panels, panel)
	}
	return out
}

// Render prints each panel's distributions as their size, minimum, median
// and maximum.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "Figure 4: sorted SMS-load stall RMS errors, %d-core CMP\n", p.Cores)
		for _, s := range p.Series {
			fmt.Fprintf(&b, "  %-6s n=%d", s.Technique, len(s.Sorted))
			if n := len(s.Sorted); n > 0 {
				fmt.Fprintf(&b, " min=%.1f median=%.1f max=%.1f", s.Sorted[0], s.Sorted[n/2], s.Sorted[n-1])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Figure5Cell summarizes one accuracy cell's component error distributions
// (the violin plots of the CPL, overlap and latency estimate errors).
type Figure5Cell struct {
	Label   string
	CPL     metrics.DistributionSummary
	Overlap metrics.DistributionSummary
	Latency metrics.DistributionSummary
}

// Figure5Result holds one summary per accuracy cell, in Figure 3's order.
type Figure5Result struct {
	Cells []Figure5Cell
}

// Figure5 reduces the raw accuracy results to component error summaries.
func Figure5(fig3 *Figure3Result) *Figure5Result {
	out := &Figure5Result{}
	for _, res := range fig3.Raw {
		out.Cells = append(out.Cells, Figure5Cell{
			Label:   res.Label,
			CPL:     metrics.Summarize(res.Components.CPLRelRMS),
			Overlap: metrics.Summarize(res.Components.OverlapRelRMS),
			Latency: metrics.Summarize(res.Components.LatencyRelRMS),
		})
	}
	return out
}

// Render prints each cell's component error medians.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: GDP/GDP-O component relative RMS error distributions\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-8s CPL median=%.3f  overlap median=%.3f  latency median=%.3f\n",
			c.Label, c.CPL.Median, c.Overlap.Median, c.Latency.Median)
	}
	return b.String()
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
