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
// runs on one worker or on runtime.NumCPU() workers.
//
// Private-mode references are per workload, not per alignment: a workload's
// private runs depend only on its instruction streams, so every shared run of
// the workload (the transparent techniques' and ASM's in an accuracy study)
// finishes first, and then one private run per core, recorded at the union of
// their sample points, serves them all (sim.PrivateReference.Align derives
// each run's view). The references of one workload are one entry in the
// result cache the caller passes (a nil cache memoizes nothing), so repeated
// studies over the same population simulate them once.
package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadRefSpec is the cache key of one workload's private-mode references:
// everything their outcome depends on.
type workloadRefSpec struct {
	Op         string
	Config     *config.CMPConfig
	Benchmarks []workload.Benchmark
	Seed       int64
	Points     [][]uint64
}

// workloadReferences runs (or recalls) the private-mode reference of every
// core of wl, core i recorded at points[i]. Cancellation reaches both the
// cycle loop of a reference being simulated and a wait on another
// goroutine's in-flight simulation of the same workload.
func workloadReferences(ctx context.Context, cache *runner.Cache, cfg *config.CMPConfig, wl workload.Workload,
	simSeed int64, points [][]uint64) ([]*sim.PrivateReference, error) {

	spec := workloadRefSpec{
		Op: "WorkloadRefs/v1", Config: cfg, Benchmarks: wl.Benchmarks,
		Seed: simSeed, Points: points,
	}
	refs, _, err := runner.MemoContext(ctx, cache, spec, func() ([]*sim.PrivateReference, error) {
		refs := make([]*sim.PrivateReference, wl.Cores())
		for core, bench := range wl.Benchmarks {
			ref, err := sim.RunPrivateContext(ctx, cfg, bench, points[core], sim.CoreSeed(simSeed, core), 0)
			if err != nil {
				return nil, err
			}
			refs[core] = ref
		}
		return refs, nil
	})
	return refs, err
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

// sharedRun is one shared-mode run of an accuracy study reduced to what the
// error reduction reads: per core, the sample points and, per interval, the
// shared-mode instruction count and the estimates of names (in names order).
type sharedRun struct {
	names        []string
	points       [][]uint64
	instructions [][]uint64
	estimates    [][]accounting.Estimate // len(names) per interval
}

// runShared runs one workload's shared-mode simulation with accts attached
// and keeps only its sharedRun reduction, so a study holds no interval
// records while its private references run.
func runShared(ctx context.Context, opts AccuracyOptions, wl workload.Workload, simSeed int64,
	accts []accounting.Accountant) (*sharedRun, error) {

	run := &sharedRun{
		instructions: make([][]uint64, wl.Cores()),
		estimates:    make([][]accounting.Estimate, wl.Cores()),
	}
	for _, a := range accts {
		run.names = append(run.names, a.Name())
	}
	res, err := sim.RunContext(ctx, sim.Options{
		Config:              opts.Config,
		Workload:            wl,
		InstructionsPerCore: opts.InstructionsPerCore,
		IntervalCycles:      opts.IntervalCycles,
		Seed:                simSeed,
		Accountants:         accts,
		Metrics:             opts.Instr.simMetrics(),
		DiscardIntervals:    true,
		OnInterval: func(rec sim.IntervalRecord) error {
			run.instructions[rec.Core] = append(run.instructions[rec.Core], rec.Shared.Instructions)
			for _, n := range run.names {
				run.estimates[rec.Core] = append(run.estimates[rec.Core], rec.Estimates[n])
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	run.points = res.SamplePoints
	return run, nil
}

// accumulate reduces the run against its aligned private references (privs[i]
// aligned on core i's sample points) and appends per-benchmark errors for
// every technique of the run, plus the GDP/GDP-O component errors.
func (r *sharedRun) accumulate(privs []*sim.PrivateReference, perTechnique map[string][]BenchmarkErrors,
	comp *ComponentAccuracy, wl workload.Workload) {

	// Component errors come from the GDP-O estimates (falling back to GDP
	// when GDP-O is not part of the study).
	compIdx := -1
	for i, n := range r.names {
		if n == "GDP-O" || (n == "GDP" && compIdx < 0) {
			compIdx = i
		}
	}
	for core, instrs := range r.instructions {
		priv := privs[core]
		ipc := make([]metrics.ErrorSeries, len(r.names))
		stall := make([]metrics.ErrorSeries, len(r.names))
		var cplSeries, overlapSeries, latSeries metrics.ErrorSeries

		for k, n := range instrs {
			if n == 0 {
				continue
			}
			actual := privateWindow(priv, k)
			if actual.Instructions == 0 || actual.Cycles == 0 {
				continue
			}
			actualIPC := actual.IPC()
			actualStall := float64(actual.StallSMS)
			ests := r.estimates[core][k*len(r.names) : (k+1)*len(r.names)]
			for i, est := range ests {
				ipc[i].Add(est.PrivateIPC, actualIPC)
				stall[i].Add(est.SMSStallCycles, actualStall)
			}
			if compIdx < 0 {
				continue
			}
			est := ests[compIdx]
			if priv.CPLAt[k] > 0 {
				cplSeries.Add(float64(est.CPL), float64(priv.CPLAt[k]))
			}
			if priv.OverlapAt[k] > 0 && est.AvgOverlap > 0 {
				overlapSeries.Add(est.AvgOverlap, priv.OverlapAt[k])
			}
			if actual.SMSLoads > 0 && est.PrivateLatency > 0 {
				latSeries.Add(est.PrivateLatency, actual.AvgSMSLatency())
			}
		}

		for i, n := range r.names {
			if ipc[i].Len() == 0 {
				continue
			}
			perTechnique[n] = append(perTechnique[n], BenchmarkErrors{
				Workload:    wl.ID,
				Core:        core,
				Benchmark:   wl.Benchmarks[core].Name,
				IPCAbsRMS:   ipc[i].AbsRMS(),
				IPCRelRMS:   ipc[i].RelRMS(),
				StallAbsRMS: stall[i].AbsRMS(),
				StallRelRMS: stall[i].RelRMS(),
			})
		}
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

// AccuracyStudy runs one cell of Figures 3-5: it generates the requested
// workloads, runs the transparent techniques together on one shared-mode run
// per workload, runs ASM on its own (invasive) shared-mode run, obtains one
// private-mode reference per core aligned on both runs' sample points, and
// reduces everything to RMS errors.
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

// accuracyPartial is the result of one workload's reduction job: the errors
// its shared-mode runs contribute to the study.
type accuracyPartial struct {
	PerTechnique map[string][]BenchmarkErrors
	Comp         ComponentAccuracy
}

// sharedJobs builds the study's first phase: per workload, one job for the
// shared transparent-technique run and one for ASM's invasive run, so that
// two runs of one workload still execute side by side. A job whose run has
// no technique returns a nil run. The job order (and therefore the
// aggregation order and the derived seeds) is fixed by the workload order,
// never by scheduling; every workload contributes perWorkload jobs.
func sharedJobs(workloads []workload.Workload, opts AccuracyOptions) (jobs []runner.Job[*sharedRun], perWorkload int) {
	type kind struct {
		label string
		accts func() ([]accounting.Accountant, error)
	}
	var kinds []kind
	if slices.ContainsFunc(opts.Techniques, func(n string) bool { return n != "ASM" }) {
		kinds = append(kinds, kind{"transparent", func() ([]accounting.Accountant, error) { return buildAccountants(opts) }})
	}
	if hasTechnique(opts.Techniques, "ASM") {
		// ASM runs on its own because it perturbs the memory controller.
		kinds = append(kinds, kind{"asm", func() ([]accounting.Accountant, error) {
			asm, err := accounting.NewASM(opts.Cores, opts.IntervalCycles/4, nil)
			return []accounting.Accountant{asm}, err
		}})
	}
	for i, wl := range workloads {
		// Per-job seed derivation: every workload simulates with its own
		// seed so parallel execution order cannot leak into the results.
		simSeed := opts.Seed + int64(i)
		for _, k := range kinds {
			jobs = append(jobs, runner.Job[*sharedRun]{
				Label: fmt.Sprintf("%s/%s", wl.ID, k.label),
				Fn: func(ctx context.Context) (*sharedRun, error) {
					accts, err := k.accts()
					if err != nil || len(accts) == 0 {
						return nil, err
					}
					return runShared(ctx, opts, wl, simSeed, accts)
				},
			})
		}
	}
	return jobs, len(kinds)
}

// reduceWorkload is the study's second phase for one workload: one private
// reference per core over the union of the shared runs' sample points, then
// each run reduced against its aligned view of it.
func reduceWorkload(ctx context.Context, opts AccuracyOptions, wl workload.Workload, simSeed int64,
	runs []*sharedRun) (accuracyPartial, error) {

	partial := accuracyPartial{PerTechnique: map[string][]BenchmarkErrors{}}
	runs = slices.DeleteFunc(slices.Clone(runs), func(r *sharedRun) bool { return r == nil })
	if len(runs) == 0 {
		return partial, nil
	}
	points := make([][]uint64, wl.Cores())
	for _, r := range runs {
		for core := range points {
			points[core] = append(points[core], r.points[core]...)
		}
	}
	for core := range points {
		slices.Sort(points[core])
		points[core] = slices.Compact(points[core])
	}
	refs, err := workloadReferences(ctx, opts.Cache, opts.Config, wl, simSeed, points)
	if err != nil {
		return partial, err
	}
	for _, r := range runs {
		privs := make([]*sim.PrivateReference, len(refs))
		for core, ref := range refs {
			if privs[core], err = ref.Align(r.points[core]); err != nil {
				return partial, err
			}
		}
		r.accumulate(privs, partial.PerTechnique, &partial.Comp, wl)
	}
	return partial, nil
}

// accuracyStudyOver is the shared implementation of the accuracy studies: it
// fans the per-workload shared runs and then the per-workload reference and
// reduction jobs out over the worker pool, and merges the partial results in
// workload order.
func accuracyStudyOver(ctx context.Context, workloads []workload.Workload, opts AccuracyOptions) (*AccuracyResult, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	pool := runner.Options{
		Workers:  opts.Jobs,
		Progress: opts.Progress,
		Metrics:  opts.Instr.pool(),
	}
	jobs, perWorkload := sharedJobs(workloads, opts)
	runs, err := runner.Run(ctx, jobs, pool)
	if err != nil {
		return nil, err
	}
	reduce := make([]runner.Job[accuracyPartial], len(workloads))
	for i, wl := range workloads {
		wlRuns := runs[i*perWorkload : (i+1)*perWorkload]
		reduce[i] = runner.Job[accuracyPartial]{
			Label: fmt.Sprintf("%s/reference", wl.ID),
			Fn: func(ctx context.Context) (accuracyPartial, error) {
				return reduceWorkload(ctx, opts, wl, opts.Seed+int64(i), wlRuns)
			},
		}
	}
	partials, err := runner.Run(ctx, reduce, pool)
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
