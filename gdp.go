// Package gdp is the public API of this reproduction of "GDP: Using Dataflow
// Properties to Accurately Estimate Interference-Free Performance at Runtime"
// (Jahre & Eeckhout, HPCA 2018).
//
// The central type is Engine: a long-lived service object constructed once
// via functional options (WithCache, WithJobs, WithProgress, WithScale) that
// owns the worker-pool configuration and the result cache and exposes
// context-first methods — Engine.Run, Engine.Stream, Engine.AccuracyStudy,
// Engine.PartitioningStudy, Engine.Sweep, Engine.Figure3, Engine.Figure7 and
// Engine.Estimate. Cancellation reaches the simulator's cycle loop (polled at
// interval boundaries), and Engine.Stream yields interval records as the
// simulation advances instead of accumulating them. Server wraps an Engine
// as an HTTP/JSON service (POST /v1/estimate, POST /v1/sweep, GET /healthz);
// `gdpsim serve` runs it from the command line.
//
// Around the Engine the package re-exports the stable surface of the
// internal packages so that downstream users never import internal/...
// directly:
//
//   - CMP configuration (Table I parameter sets),
//   - the synthetic benchmark suite and multi-programmed workload generator,
//   - the workload scenario registry (named patterns beyond the paper's
//     mixes; Engine.Scenarios, Engine.RunScenario), whose instruction
//     streams, like the suite's, are pure functions of (profile, seed)
//     (CoreSeed names the seed a run gives each core),
//   - the simulation driver (shared-mode and private-mode runs),
//   - the accounting techniques (GDP, GDP-O, ITCA, PTCA, ASM),
//   - the LLC partitioning policies (LRU, UCP, MCP, MCP-O),
//   - the experiment drivers that regenerate the paper's tables and figures,
//     and
//   - the parallel experiment runner (worker-pool fan-out, result caching,
//     progress reporting and grid sweeps).
//
// See examples/ for runnable programs built only on this package.
package gdp

import (
	"io"

	"repro/internal/accounting"
	"repro/internal/config"
	gdpcore "repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Configuration types.
type (
	// CMPConfig describes the simulated chip multiprocessor (Table I).
	CMPConfig = config.CMPConfig
	// DRAMKind selects the DRAM interface generation.
	DRAMKind = config.DRAMKind
)

// DRAM interface generations.
const (
	DDR2 = config.DDR2
	DDR4 = config.DDR4
)

// PaperConfig returns the Table I configuration for 2, 4 or 8 cores.
func PaperConfig(cores int) *CMPConfig { return config.PaperConfig(cores) }

// ScaledConfig returns the proportionally scaled configuration used for the
// short synthetic samples of this reproduction.
func ScaledConfig(cores int) *CMPConfig { return config.ScaledConfig(cores) }

// Workload types.
type (
	// Benchmark is one synthetic benchmark profile.
	Benchmark = workload.Benchmark
	// Workload is a multi-programmed benchmark combination, one per core.
	Workload = workload.Workload
	// MixKind selects how workloads are composed (H, M, L or mixed).
	MixKind = workload.MixKind
)

// Workload mixes.
const (
	MixH    = workload.MixH
	MixM    = workload.MixM
	MixL    = workload.MixL
	MixHHML = workload.MixHHML
	MixHMML = workload.MixHMML
	MixHMLL = workload.MixHMLL
)

// BenchmarkSuite returns the 52 synthetic benchmarks.
func BenchmarkSuite() []Benchmark { return workload.Suite() }

// BenchmarkByName looks a benchmark up by its SPEC-derived name.
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// GenerateWorkloads produces multi-programmed workloads.
func GenerateWorkloads(cores int, mix MixKind, count int, seed int64) ([]Workload, error) {
	return workload.Generate(workload.GenerateOptions{Cores: cores, Mix: mix, Count: count, Seed: seed})
}

// Accounting types.
type (
	// Accountant is a performance-accounting technique.
	Accountant = accounting.Accountant
	// AccountingEstimate is one private-mode performance estimate.
	AccountingEstimate = accounting.Estimate
	// DataflowUnit is the per-core GDP/GDP-O hardware unit (PRB + PCB + CPL).
	DataflowUnit = gdpcore.GDP
	// DataflowOptions configure a DataflowUnit.
	DataflowOptions = gdpcore.Options
)

// NewGDP creates the GDP accounting technique for a CMP with cores cores and
// the given Pending Request Buffer size (the paper uses 32).
func NewGDP(cores, prbEntries int) (Accountant, error) {
	return accounting.NewGDP(cores, prbEntries, false)
}

// NewGDPO creates the GDP-O variant (GDP plus overlap accounting).
func NewGDPO(cores, prbEntries int) (Accountant, error) {
	return accounting.NewGDP(cores, prbEntries, true)
}

// NewITCA creates the ITCA transparent baseline.
func NewITCA(cores int) (Accountant, error) { return accounting.NewITCA(cores) }

// NewPTCA creates the PTCA transparent baseline.
func NewPTCA(cores int) (Accountant, error) { return accounting.NewPTCA(cores) }

// NewASM creates the invasive ASM baseline with the given epoch length in
// cycles (0 selects the default).
func NewASM(cores int, epochLen uint64) (Accountant, error) {
	return accounting.NewASM(cores, epochLen, nil)
}

// NewDataflowUnit creates a bare GDP/GDP-O unit for direct use (for example
// to attach to a custom core model).
func NewDataflowUnit(opts DataflowOptions) (*DataflowUnit, error) { return gdpcore.New(opts) }

// Partitioning types.
type (
	// PartitionPolicy selects LLC way allocations at repartitioning intervals.
	PartitionPolicy = partition.Policy
	// CoreSnapshot is the per-core input to a partitioning decision.
	CoreSnapshot = partition.CoreSnapshot
)

// Partitioning policies.
var (
	// LRUPolicy never partitions (baseline sharing).
	LRUPolicy PartitionPolicy = partition.LRU{}
	// UCPPolicy is miss-minimizing utility-based cache partitioning.
	UCPPolicy PartitionPolicy = partition.UCP{}
	// MCPPolicy is the paper's model-based cache partitioning.
	MCPPolicy PartitionPolicy = partition.MCP{}
	// MCPOPolicy is MCP driven by GDP-O estimates.
	MCPOPolicy PartitionPolicy = partition.MCP{PolicyName: "MCP-O"}
)

// Simulation types.
type (
	// SimOptions configure a shared-mode simulation run.
	SimOptions = sim.Options
	// SimResult is the outcome of a shared-mode run.
	SimResult = sim.Result
	// IntervalRecord is one per-core, per-interval measurement.
	IntervalRecord = sim.IntervalRecord
	// PrivateReference is the interference-free ground truth of one benchmark.
	PrivateReference = sim.PrivateReference
)

// Metrics.

// STP computes system throughput from per-core private and shared CPIs.
func STP(privateCPI, sharedCPI []float64) (float64, error) {
	return metrics.STP(privateCPI, sharedCPI)
}

// ANTT computes the average normalized turnaround time.
func ANTT(privateCPI, sharedCPI []float64) (float64, error) {
	return metrics.ANTT(privateCPI, sharedCPI)
}

// Experiment drivers.
type (
	// StudyScale controls how much work the figure drivers do.
	StudyScale = experiments.StudyScale
	// AccuracyOptions configure one accuracy-study cell (Figures 3-5).
	AccuracyOptions = experiments.AccuracyOptions
	// AccuracyResult is the outcome of one accuracy-study cell.
	AccuracyResult = experiments.AccuracyResult
	// PartitioningOptions configure one partitioning-study cell (Figure 6).
	PartitioningOptions = experiments.PartitioningOptions
	// PartitioningResult is the outcome of one partitioning-study cell.
	PartitioningResult = experiments.PartitioningResult
	// SensitivityOptions configure the Figure 7 sweeps.
	SensitivityOptions = experiments.SensitivityOptions
	// SensitivityResult is one panel of Figure 7.
	SensitivityResult = experiments.SensitivityResult
	// Figure3Result covers Figures 3a and 3b.
	Figure3Result = experiments.Figure3Result
)

// DefaultScale returns the quick-run experiment scale.
func DefaultScale() StudyScale { return experiments.DefaultScale() }

// PaperScale returns a scale closer to the paper's workload population.
func PaperScale() StudyScale { return experiments.PaperScale() }

// Experiment runner.
type (
	// ResultCache memoizes simulation cells across studies (in memory and,
	// for disk-backed caches, across processes).
	ResultCache = runner.Cache
	// RunnerProgress is one progress event of a study's worker pool.
	RunnerProgress = runner.Progress
	// ProgressFunc receives progress events.
	ProgressFunc = runner.ProgressFunc
	// SweepOptions describe a user-defined experiment grid.
	SweepOptions = experiments.SweepOptions
	// SweepResult is the outcome of a grid sweep.
	SweepResult = experiments.SweepResult
	// SweepRow is one flattened, export-ready result line of a sweep.
	SweepRow = experiments.SweepRow
	// ResultTable is a rectangular result set ready for CSV export.
	ResultTable = runner.Table
)

// Telemetry types.
type (
	// MetricsRegistry holds labeled metric families (counters, gauges,
	// histograms) and encodes them in the Prometheus text format; Server
	// exposes an Engine's registry as GET /metrics.
	MetricsRegistry = telemetry.Registry
	// CacheStats is the per-layer breakdown of result-cache activity.
	CacheStats = runner.CacheStats
)

// NewResultCache returns an in-memory result cache.
func NewResultCache() *ResultCache { return runner.NewCache() }

// NewDiskResultCache returns a result cache that also persists entries under
// dir, so repeated processes reuse earlier simulations.
func NewDiskResultCache(dir string) (*ResultCache, error) { return runner.NewDiskCache(dir) }

// ConsoleProgress returns a ProgressFunc that prints one line per completed
// simulation cell to w.
func ConsoleProgress(w io.Writer) ProgressFunc { return runner.ConsoleProgress(w) }

// WriteJSON writes v as indented JSON to w.
func WriteJSON(w io.Writer, v any) error { return runner.WriteJSON(w, v) }

// WriteJSONFile writes v as indented JSON to a file.
func WriteJSONFile(path string, v any) error { return runner.WriteJSONFile(path, v) }
