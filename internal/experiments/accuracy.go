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
// their sample points, serves them all (sim.PrivateReference.Index and Window
// read each run's windows from it in place). The references of one workload
// are one entry in the result cache the caller passes (a nil cache memoizes
// nothing), so repeated studies over the same population simulate them once.
//
// A figure lists its accuracy studies and hands them to one study runner
// (runStudies): a study identical to an earlier one runs once, and the rest
// share one worker pool per phase (shared runs, then references and
// reductions). A sweep cell is a list of one.
package experiments

import (
	"context"
	"fmt"
	"reflect"
	"slices"

	"repro/internal/accounting"
	"repro/internal/config"
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
			ref, err := sim.RunPrivate(ctx, cfg, bench, points[core], sim.CoreSeed(simSeed, core), 0)
			if err != nil {
				return nil, err
			}
			refs[core] = ref
		}
		return refs, nil
	})
	return refs, err
}

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
	// CellConfig is the study's execution environment.
	CellConfig
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
		o.Techniques = accounting.Names
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

// sharedRun is one shared-mode run of an accuracy study reduced to the
// numbers the error reduction reads: per core, the sample points and, per
// interval, the shared-mode instruction count, every technique's IPC and SMS
// stall estimates (in names order) and the component technique's estimates.
type sharedRun struct {
	names     []string
	comp      int // index in names of the component technique, -1 for none
	points    [][]uint64
	intervals [][]sharedInterval
	estimates [][]techniqueEstimate // len(names) per interval
}

// sharedInterval is one interval of a core: its shared-mode instruction count
// and the component technique's CPL, overlap and latency estimates.
type sharedInterval struct {
	instructions uint64
	cpl          uint64
	overlap      float64
	latency      float64
}

// techniqueEstimate is one technique's private-mode IPC and SMS stall
// estimates for one interval.
type techniqueEstimate struct {
	ipc, stall float64
}

// componentTechnique returns the index in names of the technique whose
// estimates the component errors come from: GDP-O, falling back to GDP when
// GDP-O is not part of the study, or -1.
func componentTechnique(names []string) int {
	comp := -1
	for i, n := range names {
		if n == "GDP-O" || (n == "GDP" && comp < 0) {
			comp = i
		}
	}
	return comp
}

// runShared runs one workload's shared-mode simulation with the named
// techniques attached and keeps only its sharedRun reduction, so a study
// holds no interval records while its private references run.
func runShared(ctx context.Context, opts AccuracyOptions, wl workload.Workload, simSeed int64,
	names []string) (*sharedRun, error) {

	run := &sharedRun{
		names:     names,
		comp:      componentTechnique(names),
		intervals: make([][]sharedInterval, wl.Cores()),
		estimates: make([][]techniqueEstimate, wl.Cores()),
	}
	accts := make([]accounting.Accountant, len(names))
	for i, name := range names {
		a, err := accounting.New(name, opts.Cores, opts.PRBEntries, opts.IntervalCycles/4)
		if err != nil {
			return nil, err
		}
		accts[i] = a
	}
	res, err := sim.Run(ctx, sim.Options{
		Config:              opts.Config,
		Workload:            wl,
		InstructionsPerCore: opts.InstructionsPerCore,
		IntervalCycles:      opts.IntervalCycles,
		Seed:                simSeed,
		Accountants:         accts,
		Metrics:             opts.Instr.simMetrics(),
		DiscardIntervals:    true,
		OnInterval: func(rec sim.IntervalRecord) error {
			iv := sharedInterval{instructions: rec.Shared.Instructions}
			for i, n := range run.names {
				est := rec.Estimates[n]
				run.estimates[rec.Core] = append(run.estimates[rec.Core], techniqueEstimate{est.PrivateIPC, est.SMSStallCycles})
				if i == run.comp {
					iv.cpl, iv.overlap, iv.latency = est.CPL, est.AvgOverlap, est.PrivateLatency
				}
			}
			run.intervals[rec.Core] = append(run.intervals[rec.Core], iv)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	run.points = res.SamplePoints
	return run, nil
}

// accumulate reduces the run against its workload's private references
// (refs[i] is core i's, and idx[i] maps the run's sample points on core i to
// refs[i]'s, as PrivateReference.Index does) and appends per-benchmark errors
// for every technique of the run, plus the GDP/GDP-O component errors.
func (r *sharedRun) accumulate(refs []*sim.PrivateReference, idx [][]int, perTechnique map[string][]BenchmarkErrors,
	comp *ComponentAccuracy, wl workload.Workload) {

	ipc := make([]metrics.ErrorSeries, len(r.names))
	stall := make([]metrics.ErrorSeries, len(r.names))
	for core, ivs := range r.intervals {
		ref, at := refs[core], idx[core]
		clear(ipc)
		clear(stall)
		var cplSeries, overlapSeries, latSeries metrics.ErrorSeries

		for k, iv := range ivs {
			if iv.instructions == 0 {
				continue
			}
			actual, cpl, overlap := ref.Window(at, k)
			if actual.Instructions == 0 || actual.Cycles == 0 {
				continue
			}
			actualIPC := actual.IPC()
			actualStall := float64(actual.StallSMS)
			ests := r.estimates[core][k*len(r.names) : (k+1)*len(r.names)]
			for i, est := range ests {
				ipc[i].Add(est.ipc, actualIPC)
				stall[i].Add(est.stall, actualStall)
			}
			if r.comp < 0 {
				continue
			}
			if cpl > 0 {
				cplSeries.Add(float64(iv.cpl), float64(cpl))
			}
			if overlap > 0 && iv.overlap > 0 {
				overlapSeries.Add(iv.overlap, overlap)
			}
			if actual.SMSLoads > 0 && iv.latency > 0 {
				latSeries.Add(iv.latency, actual.AvgSMSLatency())
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
// reduces everything to RMS errors. Cancelling ctx stops the worker pool
// from scheduling further simulations, and every running simulation's cycle
// loop polls ctx at interval boundaries, so in-flight cells abort promptly
// too.
func AccuracyStudy(ctx context.Context, opts AccuracyOptions) (*AccuracyResult, error) {
	res, err := runStudies(ctx, opts.CellConfig, []accuracyStudy{{opts: opts}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// AccuracyStudyForWorkload runs the accuracy study over one explicit workload
// (used by the CLI's run subcommand and by ad-hoc investigations).
func AccuracyStudyForWorkload(ctx context.Context, wl workload.Workload, opts AccuracyOptions) (*AccuracyResult, error) {
	opts.Cores = wl.Cores()
	res, err := runStudies(ctx, opts.CellConfig, []accuracyStudy{{opts: opts, workloads: []workload.Workload{wl}}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// accuracyStudy is one study of a runStudies list: its options and, for a
// study over explicit workloads, those workloads (nil: generated from the
// options). label prefixes its job labels ("" or a name ending in "/");
// sharedJobs sets perWorkload, the number of shared runs per workload.
type accuracyStudy struct {
	label       string
	opts        AccuracyOptions
	workloads   []workload.Workload
	perWorkload int
}

// sameWork reports whether s does exactly the work of t: both generate their
// workloads, and their options are equal apart from the execution
// environment (Config compared by value, Techniques element by element).
func (s accuracyStudy) sameWork(t accuracyStudy) bool {
	a, b := s.opts, t.opts
	a.CellConfig, b.CellConfig = CellConfig{}, CellConfig{}
	return s.workloads == nil && t.workloads == nil && reflect.DeepEqual(a, b)
}

// accuracyPartial is the result of one workload's reduction job: the errors
// its shared-mode runs contribute to the study.
type accuracyPartial struct {
	PerTechnique map[string][]BenchmarkErrors
	Comp         ComponentAccuracy
}

// runStudies runs a list of accuracy studies in env and returns their results
// in list order; a duplicate shares its first occurrence's result. Job order,
// and with it every derived seed, is fixed by the list and workload order.
func runStudies(ctx context.Context, env CellConfig, studies []accuracyStudy) ([]*AccuracyResult, error) {
	distinct := make([]accuracyStudy, 0, len(studies))
	first := make([]int, len(studies)) // index in distinct of each study's work
	for i, s := range studies {
		s.opts = s.opts.withDefaults()
		s.opts.CellConfig = env
		if first[i] = slices.IndexFunc(distinct, s.sameWork); first[i] < 0 {
			first[i] = len(distinct)
			distinct = append(distinct, s)
		}
	}
	pool := runner.Options{Workers: env.Jobs, Progress: env.Progress, Metrics: env.Instr.pool()}
	var shared []runner.Job[*sharedRun]
	for k := range distinct {
		jobs, err := distinct[k].sharedJobs()
		if err != nil {
			return nil, err
		}
		shared = append(shared, jobs...)
	}
	runs, err := runner.Run(ctx, shared, pool)
	if err != nil {
		return nil, err
	}
	var reduce []runner.Job[accuracyPartial]
	for _, s := range distinct {
		for i, wl := range s.workloads {
			wlRuns := runs[:s.perWorkload]
			runs = runs[s.perWorkload:]
			reduce = append(reduce, runner.Job[accuracyPartial]{
				Label: s.label + wl.ID + "/reference",
				Fn: func(ctx context.Context) (accuracyPartial, error) {
					refs, err := workloadReferences(ctx, s.opts.Cache, s.opts.Config, wl, s.opts.Seed+int64(i), unionPoints(wlRuns, wl.Cores()))
					if err != nil {
						return accuracyPartial{}, err
					}
					return reduceRuns(refs, wlRuns, wl)
				},
			})
		}
	}
	partials, err := runner.Run(ctx, reduce, pool)
	if err != nil {
		return nil, err
	}
	results := make([]*AccuracyResult, len(distinct))
	for k, s := range distinct {
		results[k] = foldStudy(s.opts, partials[:len(s.workloads)])
		partials = partials[len(s.workloads):]
	}
	out := make([]*AccuracyResult, len(studies))
	for i, k := range first {
		out[i] = results[k]
	}
	return out, nil
}

// sharedJobs generates the study's workloads unless it names them, checks
// its options and builds its first phase: per workload, in workload order, a
// shared run of the transparent techniques and one of ASM (invasive: it
// perturbs the memory controller), s.perWorkload jobs side by side.
func (s *accuracyStudy) sharedJobs() (jobs []runner.Job[*sharedRun], err error) {
	opts := s.opts
	if s.workloads == nil {
		s.workloads, err = workload.Generate(workload.GenerateOptions{
			Cores: opts.Cores, Mix: opts.Mix, Count: opts.Workloads, Seed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	for _, name := range opts.Techniques {
		if !slices.Contains(accounting.Names, name) {
			return nil, fmt.Errorf("experiments: unknown technique %q (want one of %v)", name, accounting.Names)
		}
	}
	type group struct {
		label string
		names []string
	}
	transparent := group{label: "transparent"}
	for _, name := range accounting.Names {
		if name != "ASM" && slices.Contains(opts.Techniques, name) {
			transparent.names = append(transparent.names, name)
		}
	}
	var groups []group
	if len(transparent.names) > 0 {
		groups = append(groups, transparent)
	}
	if slices.Contains(opts.Techniques, "ASM") {
		groups = append(groups, group{"asm", []string{"ASM"}})
	}
	for i, wl := range s.workloads {
		// Per-job seed derivation: every workload simulates with its own
		// seed so parallel execution order cannot leak into the results.
		simSeed := opts.Seed + int64(i)
		for _, g := range groups {
			jobs = append(jobs, runner.Job[*sharedRun]{
				Label: s.label + wl.ID + "/" + g.label,
				Fn: func(ctx context.Context) (*sharedRun, error) {
					return runShared(ctx, opts, wl, simSeed, g.names)
				},
			})
		}
	}
	s.perWorkload = len(groups)
	return jobs, nil
}

// unionPoints returns, per core, the sorted union of the runs' sample points.
func unionPoints(runs []*sharedRun, cores int) [][]uint64 {
	points := make([][]uint64, cores)
	for _, r := range runs {
		for core := range points {
			points[core] = append(points[core], r.points[core]...)
		}
	}
	for core := range points {
		slices.Sort(points[core])
		points[core] = slices.Compact(points[core])
	}
	return points
}

// reduceRuns reduces every run of wl against the workload's references. Core
// i's index buffer holds as many points as the longest run on it and serves
// every run, so the reduction allocates nothing per interval.
func reduceRuns(refs []*sim.PrivateReference, runs []*sharedRun, wl workload.Workload) (accuracyPartial, error) {
	partial := accuracyPartial{PerTechnique: map[string][]BenchmarkErrors{}}
	idx := make([][]int, len(refs))
	for core := range idx {
		n := 0
		for _, r := range runs {
			n = max(n, len(r.points[core]))
		}
		idx[core] = make([]int, 0, n)
	}
	for _, r := range runs {
		for core, ref := range refs {
			var err error
			if idx[core], err = ref.Index(idx[core][:0], r.points[core]); err != nil {
				return partial, err
			}
		}
		r.accumulate(refs, idx, partial.PerTechnique, &partial.Comp, wl)
	}
	return partial, nil
}

// foldStudy merges a study's per-workload partial results, in workload
// order, into its result.
func foldStudy(opts AccuracyOptions, partials []accuracyPartial) *AccuracyResult {
	perTechnique := map[string][]BenchmarkErrors{}
	var comp ComponentAccuracy
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
		Components: comp,
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
	return result
}
