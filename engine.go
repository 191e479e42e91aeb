package gdp

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Engine is the long-lived entry point of the library: constructed once, it
// owns a result cache and the worker-pool configuration, and every method
// takes a context.Context that is honored down to the simulator's cycle loop
// (polled at interval boundaries). A single Engine safely serves concurrent
// callers — the `gdpsim serve` HTTP endpoint runs every request off one
// shared Engine — and repeated studies share private-mode reference
// simulations through the Engine's cache.
//
// The zero configuration is useful: NewEngine() yields an Engine with a fresh
// in-memory cache, a worker pool as wide as the machine and the quick-run
// experiment scale.
type Engine struct {
	jobs     int
	cache    *runner.Cache
	progress runner.ProgressFunc
	scale    StudyScale
	// cacheBudget bounds the result cache's memory layer in approximate
	// bytes (WithCacheBudget); zero leaves it unbounded. Applied to the
	// resolved cache once all options have run, so it composes with
	// WithCache in either order.
	cacheBudget int64

	// registry holds every metric family the Engine's layers register; the
	// service layer exposes it as /metrics. instr is the per-layer
	// instrumentation bundle threaded into studies and simulations.
	registry *telemetry.Registry
	instr    *experiments.Instrumentation

	// dispatchMetrics instruments the per-call dispatcher pools of
	// SweepWorkers.
	dispatchMetrics *dispatch.Metrics
}

// EngineOption configures an Engine at construction time.
type EngineOption func(*Engine) error

// WithJobs sets the default worker-pool width for the Engine's studies
// (0 = runtime.NumCPU(), 1 = serial). Options that carry their own Jobs field
// override it per call.
func WithJobs(n int) EngineOption {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("gdp: WithJobs(%d): width must be >= 0", n)
		}
		e.jobs = n
		return nil
	}
}

// WithCache installs the result cache the Engine's studies share (for example
// a disk-backed cache from NewDiskResultCache). nil is rejected: construct
// the Engine without the option to get a fresh in-memory cache.
func WithCache(c *ResultCache) EngineOption {
	return func(e *Engine) error {
		if c == nil {
			return errors.New("gdp: WithCache(nil)")
		}
		e.cache = c
		return nil
	}
}

// WithProgress installs the default progress sink for the Engine's studies.
func WithProgress(p ProgressFunc) EngineOption {
	return func(e *Engine) error {
		e.progress = p
		return nil
	}
}

// WithScale sets the experiment scale the figure drivers and the service
// layer fall back to when a call does not specify one.
func WithScale(s StudyScale) EngineOption {
	return func(e *Engine) error {
		if s.WorkloadsPerCell <= 0 || s.InstructionsPerCore == 0 || s.IntervalCycles == 0 {
			return fmt.Errorf("gdp: WithScale: incomplete scale %+v", s)
		}
		e.scale = s
		return nil
	}
}

// WithCacheBudget bounds the memory layer of the Engine's result cache to
// approximately maxBytes. Past the budget, the least-recently-used entries
// are evicted; with a disk-backed cache (WithCache over NewDiskResultCache)
// they spill to the sharded disk layer and stay one read away, so rows remain
// byte-identical — only recompute-vs-reread wall-clock changes. Zero leaves
// the memory layer unbounded (the historical behavior).
func WithCacheBudget(maxBytes int64) EngineOption {
	return func(e *Engine) error {
		if maxBytes < 0 {
			return fmt.Errorf("gdp: WithCacheBudget(%d): budget must be >= 0", maxBytes)
		}
		e.cacheBudget = maxBytes
		return nil
	}
}

// NewEngine constructs an Engine from functional options.
func NewEngine(opts ...EngineOption) (*Engine, error) {
	e := &Engine{scale: experiments.DefaultScale()}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if e.cache == nil {
		e.cache = runner.NewCache()
	}
	if e.cacheBudget > 0 {
		e.cache.SetMaxBytes(e.cacheBudget)
	}
	e.registry = telemetry.NewRegistry()
	e.instr = experiments.NewInstrumentation(e.registry)
	e.dispatchMetrics = dispatch.NewMetrics(e.registry)
	runner.RegisterCacheMetrics(e.registry, e.cache.DetailedStats)
	return e, nil
}

// MetricsRegistry returns the Engine's telemetry registry: the backing store
// of the service layer's /metrics endpoint.
func (e *Engine) MetricsRegistry() *telemetry.Registry {
	return e.registry
}

// Cache returns the Engine's result cache.
func (e *Engine) Cache() *ResultCache {
	return e.cache
}

// Scale returns the Engine's default experiment scale with the Engine's
// worker-pool width, cache, progress sink and instrumentation filled in.
func (e *Engine) Scale() StudyScale {
	return e.fillScale(StudyScale{})
}

// fillScale resolves a per-call scale against the Engine defaults: a zero
// scale selects the Engine's, and unset Jobs/Cache/Progress/Instr inherit
// the Engine's.
func (e *Engine) fillScale(s StudyScale) StudyScale {
	if s.WorkloadsPerCell == 0 && s.InstructionsPerCore == 0 && len(s.CoreCounts) == 0 {
		s = e.scale
	}
	e.fillStudy(&s.CellConfig)
	return s
}

// Run executes a shared-mode simulation. The context is polled at every
// interval boundary: an already-expired context returns its error without
// completing a single interval.
func (e *Engine) Run(ctx context.Context, opts SimOptions) (*SimResult, error) {
	e.fillSim(&opts)
	return sim.Run(ctx, opts)
}

// fillSim applies the Engine's simulation default to one run's options: the
// telemetry sink.
func (e *Engine) fillSim(opts *SimOptions) {
	if opts.Metrics == nil {
		opts.Metrics = e.instr.Sim
	}
}

// RunPrivate executes a benchmark alone on the CMP, aligned on the supplied
// instruction sample points, which must not decrease. maxCycles bounds the
// run as a safety net; zero selects a generous default derived from the last
// sample point.
func (e *Engine) RunPrivate(ctx context.Context, cfg *CMPConfig, bench Benchmark,
	samplePoints []uint64, seed int64, maxCycles uint64) (*PrivateReference, error) {
	return sim.RunPrivate(ctx, cfg, bench, samplePoints, seed, maxCycles)
}

// errStreamStopped reports that a Stream consumer abandoned the sequence
// before the simulation finished.
var errStreamStopped = errors.New("gdp: stream stopped before the simulation finished")

// Stream executes a shared-mode simulation and yields every IntervalRecord as
// soon as its interval completes, instead of accumulating them in memory
// (records arrive in core order within an interval and in time order across
// intervals; Result.Intervals stays empty). The simulation advances in the
// consumer's goroutine while the sequence is iterated. A record's Estimates
// map is valid until the next iteration: the simulation reuses it for the
// core's next record, so a consumer copies what it keeps.
//
// The sequence yields (record, nil) pairs and ends either when the simulation
// completes, when the consumer breaks out, or — after cancellation or a
// simulation error — with one final (zero, err) pair.
//
// The returned result function reports the run's outcome once the sequence
// has ended: the final SimResult (with cumulative statistics and sample
// points, but no interval records) on success, a "stream stopped" error if
// the consumer broke out early, the context's error on cancellation.
func (e *Engine) Stream(ctx context.Context, opts SimOptions) (iter.Seq2[IntervalRecord, error], func() (*SimResult, error)) {
	var (
		res      *SimResult
		runErr   error = errStreamStopped // until the sequence actually ends
		consumed bool
	)
	seq := func(yield func(IntervalRecord, error) bool) {
		if consumed {
			yield(IntervalRecord{}, errors.New("gdp: stream iterated twice"))
			return
		}
		consumed = true
		simOpts := opts
		simOpts.DiscardIntervals = true
		e.fillSim(&simOpts)
		stopped := false
		simOpts.OnInterval = func(rec sim.IntervalRecord) error {
			if !yield(rec, nil) {
				stopped = true
				return errStreamStopped
			}
			return nil
		}
		res, runErr = sim.Run(ctx, simOpts)
		if runErr != nil && !stopped {
			// Deliver terminal errors (cancellation, validation, simulation
			// failures) in-band; a consumer that broke out is not re-entered.
			yield(IntervalRecord{}, runErr)
		}
	}
	result := func() (*SimResult, error) { return res, runErr }
	return seq, result
}

// Checkpoint names an interval boundary of a shared-mode run.
//
// Deprecated: simulation-state checkpointing was measured to save nothing and
// removed. A Checkpoint holds only its cycle, and RunFromCheckpoint runs the
// whole simulation, which is exact because the simulator is deterministic.
type Checkpoint struct {
	Cycle uint64 `json:"cycle"`
}

// Checkpoint checks that warmupCycles is a positive multiple of
// opts.IntervalCycles and returns it as a Checkpoint. It simulates nothing.
//
// Deprecated: see Checkpoint.
func (e *Engine) Checkpoint(ctx context.Context, opts SimOptions, warmupCycles uint64) (*Checkpoint, error) {
	if opts.IntervalCycles == 0 || warmupCycles == 0 || warmupCycles%opts.IntervalCycles != 0 {
		return nil, fmt.Errorf("gdp: checkpoint cycle %d is not a positive multiple of the %d-cycle interval",
			warmupCycles, opts.IntervalCycles)
	}
	return &Checkpoint{Cycle: warmupCycles}, nil
}

// RunFromCheckpoint is Run for any non-nil checkpoint.
//
// Deprecated: use Run.
func (e *Engine) RunFromCheckpoint(ctx context.Context, opts SimOptions, cp *Checkpoint) (*SimResult, error) {
	if cp == nil {
		return nil, errors.New("gdp: RunFromCheckpoint: nil checkpoint")
	}
	return e.Run(ctx, opts)
}

// AccuracyStudy runs one cell of the accounting-accuracy evaluation
// (Figures 3-5). Unset fields of opts.CellConfig inherit the Engine's.
func (e *Engine) AccuracyStudy(ctx context.Context, opts AccuracyOptions) (*AccuracyResult, error) {
	e.fillStudy(&opts.CellConfig)
	return experiments.AccuracyStudy(ctx, opts)
}

// AccuracyStudyForWorkload runs the accuracy study over one explicit
// workload.
func (e *Engine) AccuracyStudyForWorkload(ctx context.Context, wl Workload, opts AccuracyOptions) (*AccuracyResult, error) {
	e.fillStudy(&opts.CellConfig)
	return experiments.AccuracyStudyForWorkload(ctx, wl, opts)
}

// PartitioningStudy runs one cell of the LLC-partitioning evaluation
// (Figure 6). Unset fields of opts.CellConfig inherit the Engine's.
func (e *Engine) PartitioningStudy(ctx context.Context, opts PartitioningOptions) (*PartitioningResult, error) {
	e.fillStudy(&opts.CellConfig)
	return experiments.PartitioningStudy(ctx, opts)
}

// Sweep runs a user-defined experiment grid through the Engine's worker pool.
// Unset fields of opts.CellConfig inherit the Engine's.
func (e *Engine) Sweep(ctx context.Context, opts SweepOptions) (*SweepResult, error) {
	e.fillStudy(&opts.CellConfig)
	return experiments.Sweep(ctx, opts)
}

// SweepWorkers is Sweep sharded across an explicit worker fleet for this call
// only (the `workers` field of POST /v1/sweep and the CLI's `-workers` flag).
// An empty fleet runs a local Sweep; rows are byte-identical either way. The
// per-call pool reports into the Engine's dispatch telemetry, and its breaker
// state does not outlive the call. The deprecated opts.Journal is rejected: a
// disk-backed cache makes a fleet sweep resumable.
func (e *Engine) SweepWorkers(ctx context.Context, opts SweepOptions, workers []string) (*SweepResult, error) {
	if opts.Journal != nil {
		return nil, errors.New("gdp: SweepWorkers: SweepOptions.Journal is not supported; resume from a disk-backed cache")
	}
	if len(workers) == 0 {
		return e.Sweep(ctx, opts)
	}
	e.fillStudy(&opts.CellConfig)
	pool, err := dispatch.NewPool(dispatch.Options{
		Workers:   workers,
		LocalJobs: e.jobs,
		Metrics:   e.dispatchMetrics,
	})
	if err != nil {
		return nil, err
	}
	return e.sweepDistributed(ctx, opts, pool)
}

// sweepDistributed runs a sweep grid through a dispatcher pool: the grid is
// enumerated into self-contained cells (the exact cells and order
// experiments.Sweep executes), sharded across the fleet, and merged by index,
// so the rows are byte-identical to a local sweep. The Engine's cache fronts the
// fleet — cells it already holds are answered without dispatch, and every
// completion (remote or local) is written back under the cell's spec key.
func (e *Engine) sweepDistributed(ctx context.Context, opts SweepOptions, pool *dispatch.Pool) (*SweepResult, error) {
	cells := experiments.EnumerateSweepCells(opts)
	groups, err := pool.Run(ctx, cells, dispatch.RunConfig{
		Local: func(ctx context.Context, c experiments.Cell) ([]SweepRow, error) {
			return c.Run(ctx, opts.CellConfig)
		},
		Cache:    cellCacheAdapter{opts.Cache},
		Progress: opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	out := &SweepResult{Cells: len(cells)}
	for _, rows := range groups {
		out.Rows = append(out.Rows, rows...)
	}
	return out, nil
}

// cellCacheAdapter exposes a runner.Cache as the dispatcher's cell cache. The
// entries are the same []SweepRow values experiments.Sweep memoizes, under
// the same spec keys, so local sweeps, front-end dispatchers and remote workers
// all share one cache population.
type cellCacheAdapter struct{ c *runner.Cache }

func (a cellCacheAdapter) Get(key string) ([]SweepRow, bool) {
	return runner.Lookup[[]SweepRow](a.c, key)
}

func (a cellCacheAdapter) Put(key string, rows []SweepRow) {
	a.c.Put(key, rows)
}

// Figure3 regenerates Figures 3a/3b. A zero scale selects the Engine's.
func (e *Engine) Figure3(ctx context.Context, scale StudyScale) (*Figure3Result, error) {
	return experiments.Figure3(ctx, e.fillScale(scale))
}

// Figure7 regenerates every panel of the sensitivity study. A zero scale
// selects the Engine's.
func (e *Engine) Figure7(ctx context.Context, scale StudyScale) ([]*SensitivityResult, error) {
	return experiments.Figure7(ctx, e.fillScale(scale))
}

// fillStudy applies the Engine defaults to the fields of a study's
// execution environment the caller left unset.
func (e *Engine) fillStudy(c *experiments.CellConfig) {
	if c.Jobs == 0 {
		c.Jobs = e.jobs
	}
	if c.Cache == nil {
		c.Cache = e.cache
	}
	if c.Progress == nil {
		c.Progress = e.progress
	}
	if c.Instr == nil {
		c.Instr = e.instr
	}
}
