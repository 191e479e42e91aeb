package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/accounting"
	"repro/internal/runner"
	"repro/internal/workload"
)

// SweepOptions describe a user-defined experiment grid: the cross product of
// core counts, workload categories and PRB sizes is evaluated as one accuracy
// cell each, and, when Policies is non-empty, one partitioning cell per
// (cores, mix) pair rides along. The whole grid fans out over the runner.
type SweepOptions struct {
	// CoreCounts lists the CMP sizes to sweep (default {4}).
	CoreCounts []int
	// Mixes lists the workload categories (default {H, M, L}).
	Mixes []workload.MixKind
	// PRBSizes lists the GDP/GDP-O Pending Request Buffer sizes (default {32}).
	PRBSizes []int
	// Techniques restricts the accounting techniques (nil = all five).
	Techniques []string
	// Policies, when non-empty, adds one partitioning cell per (cores, mix)
	// pair evaluating the named LLC policies.
	Policies []string
	// Scenarios, when non-empty, adds one accuracy cell per (cores, scenario,
	// PRB size) combination evaluating the named scenario workloads from the
	// registry.
	Scenarios []string

	// Workloads, InstructionsPerCore, IntervalCycles and Seed have the same
	// meaning as in AccuracyOptions; zero values select the same defaults.
	Workloads           int
	InstructionsPerCore uint64
	IntervalCycles      uint64
	Seed                int64

	// CellConfig is the grid's execution environment: Jobs, Progress and
	// the pool metrics of Instr apply to the grid's cell pool; Cache and
	// Instr also reach every cell's inner study.
	CellConfig

	// Journal, when non-nil, answers the cells it holds and records every
	// other one as it completes.
	//
	// Deprecated: a disk-backed Cache already persists every completed cell
	// before the pool hands out the next one, so a killed sweep rerun over
	// the same cache directory recalls them. Local sweeps still honour
	// Journal; Engine.SweepWorkers rejects it.
	Journal *SweepJournal

	// WarmupIntervals is accepted and ignored.
	//
	// Deprecated: it sized the warm-up prefix of simulation-state
	// checkpointing, which was measured to save nothing and removed.
	WarmupIntervals int
}

// withDefaults fills unset sweep options. The mix default only applies to
// grids without scenario cells: a scenarios-only sweep evaluates exactly the
// named scenarios instead of dragging the three default mixes along.
func (o SweepOptions) withDefaults() SweepOptions {
	if len(o.CoreCounts) == 0 {
		o.CoreCounts = []int{4}
	}
	if len(o.Mixes) == 0 && len(o.Scenarios) == 0 {
		o.Mixes = []workload.MixKind{workload.MixH, workload.MixM, workload.MixL}
	}
	if len(o.PRBSizes) == 0 {
		o.PRBSizes = []int{32}
	}
	if len(o.Techniques) == 0 {
		o.Techniques = accounting.Names
	}
	return o
}

// SweepRow is one flattened result line of a sweep, ready for CSV/JSON
// export: an accuracy row reports one technique's mean RMS errors in one grid
// cell, a partitioning row reports one policy's average STP, and a scenario
// row reports one technique's mean RMS errors over a named scenario workload
// (Mix then carries the scenario name).
type SweepRow struct {
	Cores int    `json:"cores"`
	Mix   string `json:"mix"` // mix name, or the scenario name for Kind "scenario"
	PRB   int    `json:"prb,omitempty"`
	Kind  string `json:"kind"` // "accuracy", "partitioning" or "scenario"
	Name  string `json:"name"` // technique or policy name

	// The metric fields are always present in the JSON export (a measured
	// zero must stay distinguishable in downstream tooling); Kind tells
	// which of them apply to a row.
	MeanIPCAbsRMS   float64 `json:"mean_ipc_abs_rms"`
	MeanIPCRelRMS   float64 `json:"mean_ipc_rel_rms"`
	MeanStallAbsRMS float64 `json:"mean_stall_abs_rms"`
	AverageSTP      float64 `json:"average_stp"`
}

// SweepResult is the outcome of one grid sweep.
type SweepResult struct {
	Rows  []SweepRow `json:"rows"`
	Cells int        `json:"cells"`
}

// Sweep runs a user-defined experiment grid through the runner. Every cell is
// validated (Cell.Validate) before any runs, so an unknown technique or
// policy, or a core count or PRB size below 1, is an error. Cancelling
// ctx stops the pool from scheduling new cells promptly, though a cell
// already simulating runs to completion. Cells
// are enumerated in a fixed order (accuracy cells over cores × mixes × PRB
// sizes, then partitioning cells over cores × mixes) and each cell derives
// its seed from the base seed and its (cores, mix) values, so the result is
// independent of both the worker count and the rest of the grid.
//
// Cells that differ only in the PRB size (or in kind) share a seed so they
// evaluate the same workload population and the comparison isolates the swept
// parameter, as in the paper's Figure 7e. Seeds derive from the (cores, mix)
// values themselves — not from the pair's position in the grid — so the same
// logical cell produces the same numbers (and reuses the same cached
// reference runs) no matter what else the grid contains. The enumeration and
// per-cell execution live in Cell/EnumerateSweepCells, shared with the
// distributed dispatcher so a cell behaves identically wherever it runs.
func Sweep(ctx context.Context, opts SweepOptions) (*SweepResult, error) {
	opts = opts.withDefaults()
	cells := EnumerateSweepCells(opts)
	for _, cell := range cells {
		if err := cell.Validate(); err != nil {
			return nil, err
		}
	}

	// A journal stores cells under the result cache's spec keys. A job that
	// runs hashes its cell and marks it journaled once it found the cell there
	// or recorded it; only the cells the result cache answered without running
	// a job are left for the pass after the pool.
	journaled := make([]bool, len(cells))
	jobs := make([]runner.Job[[]SweepRow], len(cells))
	for i, cell := range cells {
		i, cell, spec := i, cell, cell.Spec()
		jobs[i] = runner.Job[[]SweepRow]{
			Label: cell.Label(),
			Spec:  spec,
			Fn: func(ctx context.Context) ([]SweepRow, error) {
				if opts.Journal == nil {
					return cell.Run(ctx, opts.CellConfig)
				}
				key, err := runner.SpecKey(spec)
				if err != nil {
					return nil, err
				}
				if rows, ok := opts.Journal.Lookup(key); ok {
					journaled[i] = true
					return rows, nil
				}
				rows, err := cell.Run(ctx, opts.CellConfig)
				if err == nil {
					_ = opts.Journal.Record(key, cell.Label(), rows)
					journaled[i] = true
				}
				return rows, err
			},
		}
	}

	// Cache is the whole-cell memoization layer cellSpec exists for: repeated
	// sweeps (and overlapping grids) recall finished cells instead of
	// re-simulating them.
	rowGroups, err := runner.Run(ctx, jobs, runner.Options{
		Workers:  opts.Jobs,
		Cache:    opts.Cache,
		Progress: opts.Progress,
		Metrics:  opts.Instr.pool(),
	})
	if err != nil {
		return nil, err
	}
	if opts.Journal != nil {
		// Cells the result cache answered never ran their job function:
		// record them too, so the journal holds the whole grid.
		for i, cell := range cells {
			if journaled[i] {
				continue
			}
			key, err := runner.SpecKey(cell.Spec())
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep cell %q: %w", cell.Label(), err)
			}
			_ = opts.Journal.Record(key, cell.Label(), rowGroups[i])
		}
	}
	out := &SweepResult{Cells: len(cells)}
	for _, rows := range rowGroups {
		out.Rows = append(out.Rows, rows...)
	}
	return out, nil
}

// sweepCellSpec is the content-hashable identity of one grid cell: everything
// its rows depend on.
type sweepCellSpec struct {
	Op                  string   `json:"op"`
	Kind                string   `json:"kind"`
	Cores               int      `json:"cores"`
	Mix                 string   `json:"mix,omitempty"`
	Scenario            string   `json:"scenario,omitempty"`
	PRB                 int      `json:"prb,omitempty"`
	Seed                int64    `json:"seed"`
	Workloads           int      `json:"workloads"`
	InstructionsPerCore uint64   `json:"instructions_per_core"`
	IntervalCycles      uint64   `json:"interval_cycles"`
	Techniques          []string `json:"techniques,omitempty"`
	Policies            []string `json:"policies,omitempty"`
}

// scenarioSeedOffset maps a scenario name to a stable seed offset so that a
// scenario cell's numbers do not depend on the registry order or on the rest
// of the grid.
func scenarioSeedOffset(name string) int64 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum32() % 4096)
}

// Table flattens the sweep into a CSV-ready table.
func (r *SweepResult) Table() runner.Table {
	t := runner.Table{Header: []string{
		"cores", "mix", "prb", "kind", "name",
		"mean_ipc_abs_rms", "mean_ipc_rel_rms", "mean_stall_abs_rms", "average_stp",
	}}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(row.Cores), row.Mix, strconv.Itoa(row.PRB), row.Kind, row.Name,
			f(row.MeanIPCAbsRMS), f(row.MeanIPCRelRMS), f(row.MeanStallAbsRMS), f(row.AverageSTP),
		})
	}
	return t
}

// Render prints the sweep as an aligned text table.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep: %d cells, %d rows\n", r.Cells, len(r.Rows))
	fmt.Fprintf(&b, "%-6s %-6s %-5s %-14s %-8s %12s %12s %14s %10s\n",
		"cores", "mix", "prb", "kind", "name", "ipc-abs-rms", "ipc-rel-rms", "stall-abs-rms", "avg-stp")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6d %-6s %-5d %-14s %-8s %12.4g %12.4g %14.4g %10.4g\n",
			row.Cores, row.Mix, row.PRB, row.Kind, row.Name,
			row.MeanIPCAbsRMS, row.MeanIPCRelRMS, row.MeanStallAbsRMS, row.AverageSTP)
	}
	return b.String()
}

// ParseStringList splits a comma-separated list, trimming whitespace and
// dropping empty elements.
func ParseStringList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ParseMixList parses a comma-separated list of mix names (H, M, L, HHML,
// HMML, HMLL) as printed in the paper's figures.
func ParseMixList(s string) ([]workload.MixKind, error) {
	names := map[string]workload.MixKind{
		"H": workload.MixH, "M": workload.MixM, "L": workload.MixL,
		"HHML": workload.MixHHML, "HMML": workload.MixHMML, "HMLL": workload.MixHMLL,
	}
	var out []workload.MixKind
	for _, part := range ParseStringList(s) {
		mix, ok := names[strings.ToUpper(part)]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown mix %q (want H, M, L, HHML, HMML or HMLL)", part)
		}
		out = append(out, mix)
	}
	return out, nil
}

// ParseIntList parses a comma-separated list of integers.
func ParseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range ParseStringList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad integer %q in list", part)
		}
		out = append(out, v)
	}
	return out, nil
}
