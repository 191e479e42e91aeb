// Package experiments implements one driver per table and figure of the GDP
// paper's evaluation section. Each driver generates workloads, fans the
// shared-mode and private-mode simulations out over the runner subsystem's
// worker pool, and reduces the results to the numbers the corresponding
// figure reports (RMS estimation errors, component error distributions,
// system throughput under cache partitioning, and the sensitivity sweeps).
//
// All simulation cells are submitted as runner jobs: results are aggregated
// by job index, and per-job seeds are derived from the study seed and the
// workload index, so every driver produces byte-identical output whether it
// runs on one worker or on runtime.NumCPU() workers. Private-mode reference
// runs are memoized in the result cache the caller passes (a nil cache
// memoizes nothing) because several studies align on the same reference
// simulations.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// privateRefSpec is the cache key of one private-mode reference run; it
// captures everything sim.RunPrivate's outcome depends on.
type privateRefSpec struct {
	Op           string
	Config       *config.CMPConfig
	Benchmark    workload.Benchmark
	SamplePoints []uint64
	Seed         int64
}

// memoPrivateRef runs (or recalls) one private-mode reference simulation.
// Cancellation reaches both the cycle loop of a reference being simulated and
// a wait on another goroutine's in-flight simulation of the same spec.
func memoPrivateRef(ctx context.Context, cache *runner.Cache, cfg *config.CMPConfig, bench workload.Benchmark,
	samplePoints []uint64, seed int64) (*sim.PrivateReference, error) {

	spec := privateRefSpec{
		Op: "RunPrivate/v1", Config: cfg, Benchmark: bench,
		SamplePoints: samplePoints, Seed: seed,
	}
	ref, _, err := runner.MemoContext(ctx, cache, spec, func() (*sim.PrivateReference, error) {
		return sim.RunPrivateContext(ctx, cfg, bench, samplePoints, seed, 0)
	})
	return ref, err
}

// TechniqueNames lists the accounting techniques compared in Figures 3 and 4,
// in the paper's order.
var TechniqueNames = []string{"ITCA", "PTCA", "ASM", "GDP", "GDP-O"}

// AccuracyOptions configure one accounting-accuracy study cell (one bar group
// of Figure 3: a core count and a workload category).
type AccuracyOptions struct {
	Cores               int
	Mix                 workload.MixKind
	Workloads           int
	InstructionsPerCore uint64
	IntervalCycles      uint64
	Seed                int64
	// Config overrides the default scaled configuration (used by the
	// sensitivity study); nil selects config.ScaledConfig(Cores).
	Config *config.CMPConfig
	// PRBEntries overrides the GDP/GDP-O Pending Request Buffer size
	// (default 32).
	PRBEntries int
	// Techniques restricts the evaluated techniques (nil = all five).
	Techniques []string
	// Jobs is the worker-pool width for the per-workload simulations
	// (0 = runtime.NumCPU(), 1 = serial). Results are identical for any
	// value: aggregation is ordered by job index and per-job seeds are
	// derived from Seed and the workload index.
	Jobs int
	// Cache memoizes private-mode reference runs (nil = no memoization).
	Cache *runner.Cache
	// Progress, when non-nil, receives one event per completed job.
	Progress runner.ProgressFunc
	// Instr, when non-nil, attaches telemetry to the study: pool metrics on
	// the worker pool and run counters on every simulation. Purely
	// observational.
	Instr *Instrumentation
}

// withDefaults fills unset options.
func (o AccuracyOptions) withDefaults() AccuracyOptions {
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.Workloads == 0 {
		o.Workloads = 3
	}
	if o.InstructionsPerCore == 0 {
		o.InstructionsPerCore = 6000
	}
	if o.IntervalCycles == 0 {
		o.IntervalCycles = 5000
	}
	if o.Config == nil {
		o.Config = config.ScaledConfig(o.Cores)
	}
	if o.PRBEntries == 0 {
		o.PRBEntries = 32
	}
	if len(o.Techniques) == 0 {
		o.Techniques = TechniqueNames
	}
	return o
}

// BenchmarkErrors holds the per-benchmark (per core slot of one workload)
// RMS estimation errors of one technique.
type BenchmarkErrors struct {
	Workload  string
	Core      int
	Benchmark string

	IPCAbsRMS   float64
	IPCRelRMS   float64
	StallAbsRMS float64
	StallRelRMS float64
}

// TechniqueAccuracy aggregates one technique's errors over a study cell.
type TechniqueAccuracy struct {
	Technique string

	// Per-benchmark series (one entry per core slot per workload); these feed
	// the sorted distributions of Figure 4.
	PerBenchmark []BenchmarkErrors

	// Averages over the per-benchmark RMS errors (the bars of Figure 3).
	MeanIPCAbsRMS   float64
	MeanIPCRelRMS   float64
	MeanStallAbsRMS float64
}

// ComponentAccuracy holds the GDP/GDP-O component error distributions of
// Figure 5 (relative RMS errors, one entry per benchmark slot).
type ComponentAccuracy struct {
	CPLRelRMS     []float64
	OverlapRelRMS []float64
	LatencyRelRMS []float64
}

// AccuracyResult is the outcome of one study cell.
type AccuracyResult struct {
	Label      string
	Options    AccuracyOptions
	Techniques []TechniqueAccuracy
	Components ComponentAccuracy
}

// Technique returns the named technique's aggregate, or nil.
func (r *AccuracyResult) Technique(name string) *TechniqueAccuracy {
	for i := range r.Techniques {
		if r.Techniques[i].Technique == name {
			return &r.Techniques[i]
		}
	}
	return nil
}

// hasTechnique reports whether the study evaluates the named technique.
func hasTechnique(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// buildAccountants instantiates the requested transparent techniques (ASM is
// handled separately because it is invasive).
func buildAccountants(opts AccuracyOptions) ([]accounting.Accountant, error) {
	var out []accounting.Accountant
	if hasTechnique(opts.Techniques, "GDP") {
		a, err := accounting.NewGDP(opts.Cores, opts.PRBEntries, false)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	if hasTechnique(opts.Techniques, "GDP-O") {
		a, err := accounting.NewGDP(opts.Cores, opts.PRBEntries, true)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	if hasTechnique(opts.Techniques, "ITCA") {
		a, err := accounting.NewITCA(opts.Cores)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	if hasTechnique(opts.Techniques, "PTCA") {
		a, err := accounting.NewPTCA(opts.Cores)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// privateWindow returns the actual private-mode statistics of the window
// ending at sample index k (delta between consecutive aligned snapshots).
func privateWindow(priv *sim.PrivateReference, k int) cpu.Stats {
	if k == 0 {
		return priv.At[0]
	}
	return priv.At[k].Delta(priv.At[k-1])
}

// accumulateErrors walks one shared run and its aligned private references
// and appends per-benchmark errors for every technique present in the run.
func accumulateErrors(res *sim.Result, privs []*sim.PrivateReference, names []string,
	perTechnique map[string][]BenchmarkErrors, comp *ComponentAccuracy, wl workload.Workload) {

	for core := range res.Intervals {
		priv := privs[core]
		series := map[string]*struct {
			ipc   metrics.ErrorSeries
			stall metrics.ErrorSeries
		}{}
		for _, n := range names {
			series[n] = &struct {
				ipc   metrics.ErrorSeries
				stall metrics.ErrorSeries
			}{}
		}
		var cplSeries, overlapSeries, latSeries metrics.ErrorSeries

		for k, rec := range res.Intervals[core] {
			if rec.Shared.Instructions == 0 || k >= len(priv.At) {
				continue
			}
			actual := privateWindow(priv, k)
			if actual.Instructions == 0 || actual.Cycles == 0 {
				continue
			}
			actualIPC := actual.IPC()
			actualStall := float64(actual.StallSMS)

			for _, n := range names {
				est, ok := rec.Estimates[n]
				if !ok {
					continue
				}
				series[n].ipc.Add(est.PrivateIPC, actualIPC)
				series[n].stall.Add(est.SMSStallCycles, actualStall)
			}

			// Component errors come from the GDP-O estimates (falling back to
			// GDP when GDP-O is not part of the study).
			refName := "GDP-O"
			if _, ok := rec.Estimates[refName]; !ok {
				refName = "GDP"
			}
			if est, ok := rec.Estimates[refName]; ok && comp != nil {
				if k < len(priv.CPLAt) && priv.CPLAt[k] > 0 {
					cplSeries.Add(float64(est.CPL), float64(priv.CPLAt[k]))
				}
				if k < len(priv.OverlapAt) && priv.OverlapAt[k] > 0 && est.AvgOverlap > 0 {
					overlapSeries.Add(est.AvgOverlap, priv.OverlapAt[k])
				}
				if actual.SMSLoads > 0 && est.PrivateLatency > 0 {
					latSeries.Add(est.PrivateLatency, actual.AvgSMSLatency())
				}
			}
		}

		for _, n := range names {
			s := series[n]
			if s.ipc.Len() == 0 {
				continue
			}
			perTechnique[n] = append(perTechnique[n], BenchmarkErrors{
				Workload:    wl.ID,
				Core:        core,
				Benchmark:   wl.Benchmarks[core].Name,
				IPCAbsRMS:   s.ipc.AbsRMS(),
				IPCRelRMS:   s.ipc.RelRMS(),
				StallAbsRMS: s.stall.AbsRMS(),
				StallRelRMS: s.stall.RelRMS(),
			})
		}
		if comp != nil {
			if cplSeries.Len() > 0 {
				comp.CPLRelRMS = append(comp.CPLRelRMS, cplSeries.RelRMS())
			}
			if overlapSeries.Len() > 0 {
				comp.OverlapRelRMS = append(comp.OverlapRelRMS, overlapSeries.RelRMS())
			}
			if latSeries.Len() > 0 {
				comp.LatencyRelRMS = append(comp.LatencyRelRMS, latSeries.RelRMS())
			}
		}
	}
}

// AccuracyStudy runs one cell of Figures 3-5: it generates the requested
// workloads, runs the transparent techniques together on one shared-mode run
// per workload, runs ASM on its own (invasive) shared-mode run, obtains the
// aligned private-mode references, and reduces everything to RMS errors.
func AccuracyStudy(opts AccuracyOptions) (*AccuracyResult, error) {
	return AccuracyStudyContext(context.Background(), opts)
}

// AccuracyStudyContext is AccuracyStudy with cancellation: the worker pool
// stops scheduling further simulations and the context is plumbed into every
// running simulation's cycle loop, which polls it at interval boundaries, so
// in-flight cells abort promptly too.
func AccuracyStudyContext(ctx context.Context, opts AccuracyOptions) (*AccuracyResult, error) {
	opts = opts.withDefaults()
	workloads, err := workload.Generate(workload.GenerateOptions{
		Cores: opts.Cores, Mix: opts.Mix, Count: opts.Workloads, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return accuracyStudyOver(ctx, workloads, opts)
}

// AccuracyStudyForWorkload runs the accuracy study over one explicit workload
// (used by the CLI's run subcommand and by ad-hoc investigations).
func AccuracyStudyForWorkload(wl workload.Workload, opts AccuracyOptions) (*AccuracyResult, error) {
	return AccuracyStudyForWorkloadContext(context.Background(), wl, opts)
}

// AccuracyStudyForWorkloadContext is AccuracyStudyForWorkload with
// cancellation.
func AccuracyStudyForWorkloadContext(ctx context.Context, wl workload.Workload, opts AccuracyOptions) (*AccuracyResult, error) {
	opts.Cores = wl.Cores()
	opts = opts.withDefaults()
	return accuracyStudyOver(ctx, []workload.Workload{wl}, opts)
}

// accuracyPartial is the result of one runner job: the errors one workload's
// shared-mode run (transparent or ASM) contributes to the study.
type accuracyPartial struct {
	PerTechnique map[string][]BenchmarkErrors
	Comp         ComponentAccuracy
}

// accuracyJobs builds the study's job list: per workload, one job for the
// shared transparent-technique run and one for ASM's invasive run. The job
// order (and therefore the aggregation order and the derived seeds) is fixed
// by the workload order, never by scheduling.
func accuracyJobs(workloads []workload.Workload, opts AccuracyOptions) []runner.Job[accuracyPartial] {
	var jobs []runner.Job[accuracyPartial]
	wantTransparent := false
	for _, n := range opts.Techniques {
		if n != "ASM" {
			wantTransparent = true
		}
	}
	for i, wl := range workloads {
		wl := wl
		// Per-job seed derivation: every workload simulates with its own
		// seed so parallel execution order cannot leak into the results.
		simSeed := opts.Seed + int64(i)
		if wantTransparent {
			jobs = append(jobs, runner.Job[accuracyPartial]{
				Label: fmt.Sprintf("%s/transparent", wl.ID),
				Fn: func(ctx context.Context) (accuracyPartial, error) {
					return runTransparentCell(ctx, wl, opts, simSeed)
				},
			})
		}
		if hasTechnique(opts.Techniques, "ASM") {
			jobs = append(jobs, runner.Job[accuracyPartial]{
				Label: fmt.Sprintf("%s/asm", wl.ID),
				Fn: func(ctx context.Context) (accuracyPartial, error) {
					return runASMCell(ctx, wl, opts, simSeed)
				},
			})
		}
	}
	return jobs
}

// runTransparentCell runs one workload's shared-mode simulation with every
// transparent technique attached and reduces it against the private-mode
// references.
func runTransparentCell(ctx context.Context, wl workload.Workload, opts AccuracyOptions, simSeed int64) (accuracyPartial, error) {
	partial := accuracyPartial{PerTechnique: map[string][]BenchmarkErrors{}}
	transparent, err := buildAccountants(opts)
	if err != nil {
		return partial, err
	}
	if len(transparent) == 0 {
		return partial, nil
	}
	transparentNames := make([]string, 0, len(transparent))
	for _, a := range transparent {
		transparentNames = append(transparentNames, a.Name())
	}
	res, err := sim.RunContext(ctx, sharedOptions(opts, wl, simSeed, transparent))
	if err != nil {
		return partial, err
	}
	privs, err := privateReferences(ctx, opts, wl, res, simSeed)
	if err != nil {
		return partial, err
	}
	accumulateErrors(res, privs, transparentNames, partial.PerTechnique, &partial.Comp, wl)
	return partial, nil
}

// runASMCell runs ASM on its own shared-mode simulation because it perturbs
// the memory controller.
func runASMCell(ctx context.Context, wl workload.Workload, opts AccuracyOptions, simSeed int64) (accuracyPartial, error) {
	partial := accuracyPartial{PerTechnique: map[string][]BenchmarkErrors{}}
	asm, err := accounting.NewASM(opts.Cores, opts.IntervalCycles/4, nil)
	if err != nil {
		return partial, err
	}
	res, err := sim.RunContext(ctx, sharedOptions(opts, wl, simSeed, []accounting.Accountant{asm}))
	if err != nil {
		return partial, err
	}
	privs, err := privateReferences(ctx, opts, wl, res, simSeed)
	if err != nil {
		return partial, err
	}
	accumulateErrors(res, privs, []string{"ASM"}, partial.PerTechnique, nil, wl)
	return partial, nil
}

// sharedOptions describes one workload's shared-mode simulation with accts
// attached.
func sharedOptions(opts AccuracyOptions, wl workload.Workload, simSeed int64, accts []accounting.Accountant) sim.Options {
	return sim.Options{
		Config:              opts.Config,
		Workload:            wl,
		InstructionsPerCore: opts.InstructionsPerCore,
		IntervalCycles:      opts.IntervalCycles,
		Seed:                simSeed,
		Accountants:         accts,
		Metrics:             opts.Instr.simMetrics(),
	}
}

// accuracyStudyOver is the shared implementation of the accuracy studies: it
// fans the per-workload simulations out over the worker pool and merges the
// partial results in job order.
func accuracyStudyOver(ctx context.Context, workloads []workload.Workload, opts AccuracyOptions) (*AccuracyResult, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}

	partials, err := runner.Run(ctx, accuracyJobs(workloads, opts), runner.Options{
		Workers:  opts.Jobs,
		Progress: opts.Progress,
		Metrics:  opts.Instr.pool(),
	})
	if err != nil {
		return nil, err
	}

	perTechnique := map[string][]BenchmarkErrors{}
	comp := &ComponentAccuracy{}
	for _, p := range partials {
		for name, errs := range p.PerTechnique {
			perTechnique[name] = append(perTechnique[name], errs...)
		}
		comp.CPLRelRMS = append(comp.CPLRelRMS, p.Comp.CPLRelRMS...)
		comp.OverlapRelRMS = append(comp.OverlapRelRMS, p.Comp.OverlapRelRMS...)
		comp.LatencyRelRMS = append(comp.LatencyRelRMS, p.Comp.LatencyRelRMS...)
	}

	result := &AccuracyResult{
		Label:      fmt.Sprintf("%dc-%s", opts.Cores, opts.Mix),
		Options:    opts,
		Components: *comp,
	}
	for _, name := range opts.Techniques {
		errs := perTechnique[name]
		ta := TechniqueAccuracy{Technique: name, PerBenchmark: errs}
		var ipcAbs, ipcRel, stallAbs []float64
		for _, e := range errs {
			ipcAbs = append(ipcAbs, e.IPCAbsRMS)
			ipcRel = append(ipcRel, e.IPCRelRMS)
			stallAbs = append(stallAbs, e.StallAbsRMS)
		}
		ta.MeanIPCAbsRMS, _ = metrics.Mean(ipcAbs)
		ta.MeanIPCRelRMS, _ = metrics.Mean(ipcRel)
		ta.MeanStallAbsRMS, _ = metrics.Mean(stallAbs)
		result.Techniques = append(result.Techniques, ta)
	}
	return result, nil
}

// privateReferences obtains the private-mode simulations for every core of a
// workload, aligned on the shared run's sample points. Identical benchmarks
// on different cores still need separate references because their sample
// points differ. References go through the result cache: the transparent and
// ASM runs of a workload (and repeated studies over the same population)
// share reference simulations whenever their sample points coincide.
func privateReferences(ctx context.Context, opts AccuracyOptions, wl workload.Workload, res *sim.Result, simSeed int64) ([]*sim.PrivateReference, error) {
	privs := make([]*sim.PrivateReference, wl.Cores())
	for core, bench := range wl.Benchmarks {
		p, err := memoPrivateRef(ctx, opts.Cache, opts.Config, bench, res.SamplePoints[core], sim.CoreSeed(simSeed, core))
		if err != nil {
			return nil, err
		}
		privs[core] = p
	}
	return privs, nil
}
