package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/accounting"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Cell kinds of a sweep grid.
const (
	CellKindAccuracy     = "accuracy"
	CellKindPartitioning = "partitioning"
	CellKindScenario     = "scenario"
)

// Cell is a self-contained, JSON-serializable description of one sweep grid
// cell: everything needed to execute the cell and to derive its
// content-addressed cache identity, with no reference back to the grid it was
// enumerated from. This is the unit of distribution — a dispatcher ships
// Cells to remote `gdpsim serve` workers over the wire, and because local
// execution (Sweep) and remote execution (the /v1/cells endpoint) both
// flow through Cell.Spec and Cell.Run, a cell produces byte-identical rows
// and hits the same two-layer cache entries wherever it runs.
type Cell struct {
	// Kind selects the cell type: accuracy, partitioning or scenario.
	Kind string `json:"kind"`
	// Cores is the CMP size.
	Cores int `json:"cores"`
	// Mix is the workload category name (H, M, L, HHML, HMML, HMLL) for
	// accuracy and partitioning cells.
	Mix string `json:"mix,omitempty"`
	// Scenario names the registry scenario for scenario cells.
	Scenario string `json:"scenario,omitempty"`
	// PRB is the Pending Request Buffer size for accuracy/scenario cells.
	PRB int `json:"prb,omitempty"`
	// Seed is the cell's fully derived seed (the grid derivation already
	// happened at enumeration time).
	Seed int64 `json:"seed"`

	// Workloads, InstructionsPerCore and IntervalCycles mirror SweepOptions;
	// zero values select the study defaults.
	Workloads           int    `json:"workloads,omitempty"`
	InstructionsPerCore uint64 `json:"instructions_per_core,omitempty"`
	IntervalCycles      uint64 `json:"interval_cycles,omitempty"`
	// Techniques lists the accounting techniques for accuracy/scenario cells.
	Techniques []string `json:"techniques,omitempty"`
	// Policies lists the LLC policies for partitioning cells.
	Policies []string `json:"policies,omitempty"`
}

// Spec returns the content-hashable identity of the cell (see runner.SpecKey).
// It is the exact spec Sweep has always used for whole-cell
// memoization, so cells executed through a dispatcher recall (and populate)
// the same cache entries as local sweeps.
func (c Cell) Spec() any {
	spec := sweepCellSpec{
		Op:                  "SweepCell/v1",
		Kind:                c.Kind,
		Cores:               c.Cores,
		Scenario:            c.Scenario,
		Seed:                c.Seed,
		Workloads:           c.Workloads,
		InstructionsPerCore: c.InstructionsPerCore,
		IntervalCycles:      c.IntervalCycles,
	}
	switch c.Kind {
	case CellKindPartitioning:
		spec.Mix = c.Mix
		spec.Policies = c.Policies
	case CellKindScenario:
		spec.PRB = c.PRB
		spec.Techniques = c.Techniques
	default:
		spec.Mix = c.Mix
		spec.PRB = c.PRB
		spec.Techniques = c.Techniques
	}
	return spec
}

// Label identifies the cell in progress reports and error messages.
func (c Cell) Label() string {
	if c.Kind == CellKindScenario {
		return fmt.Sprintf("scenario/%dc-%s/prb%d", c.Cores, c.Scenario, c.PRB)
	}
	label := fmt.Sprintf("%s/%dc-%s", c.Kind, c.Cores, c.Mix)
	if c.Kind == CellKindAccuracy {
		label += fmt.Sprintf("/prb%d", c.PRB)
	}
	return label
}

// mixKind resolves the cell's mix name.
func (c Cell) mixKind() (workload.MixKind, error) {
	mixes, err := ParseMixList(c.Mix)
	if err != nil {
		return 0, err
	}
	if len(mixes) != 1 {
		return 0, fmt.Errorf("experiments: cell needs exactly one mix, got %q", c.Mix)
	}
	return mixes[0], nil
}

// Validate checks the cell's structural consistency: a known kind, a positive
// core count, a resolvable mix or scenario, known technique and policy names.
// It enforces no work-size limits — those belong to the service layer, which
// decides how much simulation one request may demand.
func (c Cell) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("experiments: cell core count %d out of range", c.Cores)
	}
	switch c.Kind {
	case CellKindAccuracy, CellKindPartitioning:
		if _, err := c.mixKind(); err != nil {
			return err
		}
		if c.Kind == CellKindPartitioning {
			if len(c.Policies) == 0 {
				return fmt.Errorf("experiments: partitioning cell without policies")
			}
		} else if c.PRB <= 0 {
			return fmt.Errorf("experiments: accuracy cell PRB size %d out of range", c.PRB)
		}
	case CellKindScenario:
		if _, err := workload.ScenarioByName(c.Scenario); err != nil {
			return err
		}
		if c.PRB <= 0 {
			return fmt.Errorf("experiments: scenario cell PRB size %d out of range", c.PRB)
		}
	default:
		return fmt.Errorf("experiments: unknown sweep cell kind %q", c.Kind)
	}
	for _, name := range c.Techniques {
		if !slices.Contains(accounting.Names, name) {
			return fmt.Errorf("experiments: unknown technique %q (want one of %v)", name, accounting.Names)
		}
	}
	for _, name := range c.Policies {
		if !slices.Contains(PolicyNames, name) {
			return fmt.Errorf("experiments: unknown policy %q (want one of %v)", name, PolicyNames)
		}
	}
	return nil
}

// CellConfig is the execution environment of a study, a sweep or a grid
// cell: how wide its worker pool is, where it memoizes, whom it reports
// progress to and which telemetry it feeds. Every option struct of this
// package embeds it. None of it changes a result: rows and figures are
// byte-identical for any value of every field.
type CellConfig struct {
	// Jobs is the worker-pool width (0 = runtime.NumCPU(), 1 = serial).
	// Aggregation is ordered by job index and per-job seeds derive from the
	// study seed, so results are identical for any value.
	Jobs int
	// Cache memoizes private-mode reference runs and whole grid cells (nil =
	// no memoization).
	Cache *runner.Cache
	// Progress, when non-nil, receives one event per completed pool job.
	Progress runner.ProgressFunc
	// Instr, when non-nil, attaches pool metrics to the worker pool and run
	// counters to every simulation. Purely observational.
	Instr *Instrumentation
}

// Run executes the cell and returns its flattened rows. Cell-level fan-out is
// assumed to already saturate whatever pool the caller runs, so the inner
// study runs serially (Jobs: 1) to avoid nesting worker pools, and reports no
// progress of its own: only cfg's Cache and Instr reach it. Rows are a
// pure function of the cell's exported fields: the same Cell produces
// byte-identical rows on any machine and for any jobs count.
func (c Cell) Run(ctx context.Context, cfg CellConfig) ([]SweepRow, error) {
	inner := CellConfig{Jobs: 1, Cache: cfg.Cache, Instr: cfg.Instr}
	switch c.Kind {
	case CellKindAccuracy, CellKindScenario:
		study := accuracyStudy{opts: AccuracyOptions{
			Cores:               c.Cores,
			Workloads:           c.Workloads,
			InstructionsPerCore: c.InstructionsPerCore,
			IntervalCycles:      c.IntervalCycles,
			Seed:                c.Seed,
			PRBEntries:          c.PRB,
			Techniques:          c.Techniques,
		}}
		name := c.Mix
		if c.Kind == CellKindScenario {
			sc, err := workload.ScenarioByName(c.Scenario)
			if err != nil {
				return nil, err
			}
			wl, err := sc.Workload(c.Cores)
			if err != nil {
				return nil, err
			}
			study.workloads = []workload.Workload{wl}
			name = c.Scenario
		} else {
			mix, err := c.mixKind()
			if err != nil {
				return nil, err
			}
			study.opts.Mix = mix
		}
		res, err := runStudies(ctx, inner, []accuracyStudy{study})
		if err != nil {
			return nil, err
		}
		rows := make([]SweepRow, 0, len(res[0].Techniques))
		for _, t := range res[0].Techniques {
			rows = append(rows, SweepRow{
				Cores: c.Cores, Mix: name, PRB: c.PRB,
				Kind: c.Kind, Name: t.Technique,
				MeanIPCAbsRMS:   t.MeanIPCAbsRMS,
				MeanIPCRelRMS:   t.MeanIPCRelRMS,
				MeanStallAbsRMS: t.MeanStallAbsRMS,
			})
		}
		return rows, nil
	case CellKindPartitioning:
		mix, err := c.mixKind()
		if err != nil {
			return nil, err
		}
		res, err := PartitioningStudy(ctx, PartitioningOptions{
			Cores:               c.Cores,
			Mix:                 mix,
			Workloads:           c.Workloads,
			InstructionsPerCore: c.InstructionsPerCore,
			IntervalCycles:      c.IntervalCycles,
			Seed:                c.Seed,
			Policies:            c.Policies,
			CellConfig:          inner,
		})
		if err != nil {
			return nil, err
		}
		rows := make([]SweepRow, 0, len(c.Policies))
		for _, pol := range c.Policies {
			rows = append(rows, SweepRow{
				Cores: c.Cores, Mix: c.Mix,
				Kind: CellKindPartitioning, Name: pol,
				AverageSTP: res.AverageSTP[pol],
			})
		}
		return rows, nil
	default:
		return nil, fmt.Errorf("experiments: unknown sweep cell kind %q", c.Kind)
	}
}

// CellCount returns len(EnumerateSweepCells(o)) without building the cells,
// so a caller can bound a grid's size before enumerating it.
func (o SweepOptions) CellCount() int {
	o = o.withDefaults()
	n := len(o.CoreCounts) * len(o.Mixes) * len(o.PRBSizes)
	if len(o.Policies) > 0 {
		n += len(o.CoreCounts) * len(o.Mixes)
	}
	return n + len(o.CoreCounts)*len(o.Scenarios)*len(o.PRBSizes)
}

// EnumerateSweepCells flattens a sweep grid into its cells, in the exact
// fixed order Sweep executes them: accuracy cells over cores × mixes ×
// PRB sizes, then partitioning cells over cores × mixes, then scenario cells
// over cores × scenarios × PRB sizes. Each cell carries its fully derived
// seed and every option its rows depend on, so a cell is executable — and
// cacheable — with no reference back to the grid. Concatenating the cells'
// rows in enumeration order reproduces the sweep's rows byte-identically;
// this is the contract the distributed dispatcher builds on.
func EnumerateSweepCells(opts SweepOptions) []Cell {
	opts = opts.withDefaults()
	base := Cell{
		Workloads:           opts.Workloads,
		InstructionsPerCore: opts.InstructionsPerCore,
		IntervalCycles:      opts.IntervalCycles,
	}
	pairSeed := func(cores int, mix workload.MixKind) int64 {
		return opts.Seed + int64(cores)*8 + int64(mix)
	}
	var cells []Cell
	for _, cores := range opts.CoreCounts {
		for _, mix := range opts.Mixes {
			for _, prb := range opts.PRBSizes {
				c := base
				c.Kind = CellKindAccuracy
				c.Cores = cores
				c.Mix = mix.String()
				c.PRB = prb
				c.Seed = pairSeed(cores, mix)
				c.Techniques = opts.Techniques
				cells = append(cells, c)
			}
		}
	}
	if len(opts.Policies) > 0 {
		for _, cores := range opts.CoreCounts {
			for _, mix := range opts.Mixes {
				c := base
				c.Kind = CellKindPartitioning
				c.Cores = cores
				c.Mix = mix.String()
				c.Seed = pairSeed(cores, mix)
				c.Policies = opts.Policies
				cells = append(cells, c)
			}
		}
	}
	for _, cores := range opts.CoreCounts {
		for _, name := range opts.Scenarios {
			for _, prb := range opts.PRBSizes {
				c := base
				c.Kind = CellKindScenario
				c.Cores = cores
				c.Scenario = name
				c.PRB = prb
				c.Seed = opts.Seed + int64(cores)*8 + scenarioSeedOffset(name)
				c.Techniques = opts.Techniques
				cells = append(cells, c)
			}
		}
	}
	return cells
}
