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
// are also one entry in the result cache the caller passes (a nil cache
// memoizes nothing), so later studies over the same population recall them.
//
// A figure lists its accuracy studies and hands them to one study runner
// (runStudies), which plans by simulation identity (simKey: configuration,
// workload, sample size, interval, and whether the run is ASM's). Studies
// whose runs share an identity read one run, which carries the union of
// their accountant instances (GDP and GDP-O named with their PRB size), and
// one set of references; each study then reads its own columns. One worker
// pool runs every shared run, a second every reference set and its
// reductions. A sweep cell is a list of one.
package experiments

import (
	"context"
	"fmt"
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

// instance is one accountant a shared run carries: its technique, its PRB
// size (0 but for GDP and GDP-O), its name on the run, which carries the size
// ("GDP-O/8") so one run can hold a technique at several sizes, and the
// offset of its estimates in the run's interval samples.
type instance struct {
	name, technique string
	prb, off        int
}

// sharedRun is one shared-mode run of a study plan: the simulation its first
// study asked for, carrying every instance its studies read. Once run, it
// holds per core the sample points and, per interval, a sample of width
// values: the shared-mode instruction count, then per instance its IPC and
// SMS stall estimates and, for GDP and GDP-O, its CPL, overlap and latency
// estimates. at maps the points into the workload's references.
type sharedRun struct {
	label     string
	opts      AccuracyOptions
	wl        workload.Workload
	seed      int64
	instances []instance
	width     int

	points  [][]uint64
	samples [][]float64
	at      [][]int
}

// add returns the offset of in's estimates in r's samples, adding in unless
// r carries an instance of that name.
func (r *sharedRun) add(in instance) int {
	for _, x := range r.instances {
		if x.name == in.name {
			return x.off
		}
	}
	in.off = r.width
	r.width += 2
	if in.prb != 0 {
		r.width += 3
	}
	r.instances = append(r.instances, in)
	return in.off
}

// run simulates r with its instances attached and keeps only what the
// reduction reads, so a study holds no interval records while its private
// references run.
func (r *sharedRun) run(ctx context.Context, sink *sim.Metrics) error {
	cores := r.wl.Cores()
	r.samples = make([][]float64, cores)
	accts := make([]accounting.Accountant, len(r.instances))
	for i, in := range r.instances {
		var err error
		if in.prb != 0 {
			accts[i], err = accounting.NewGDP(in.name, cores, in.prb, in.technique == "GDP-O")
		} else {
			accts[i], err = accounting.New(in.technique, cores, 0, r.opts.IntervalCycles/4)
		}
		if err != nil {
			return err
		}
	}
	res, err := sim.Run(ctx, sim.Options{
		Config:              r.opts.Config,
		Workload:            r.wl,
		InstructionsPerCore: r.opts.InstructionsPerCore,
		IntervalCycles:      r.opts.IntervalCycles,
		Seed:                r.seed,
		Accountants:         accts,
		Metrics:             sink,
		DiscardIntervals:    true,
		OnInterval: func(rec sim.IntervalRecord) error {
			s := append(r.samples[rec.Core], float64(rec.Shared.Instructions))
			for _, in := range r.instances {
				est := rec.Estimates[in.name]
				s = append(s, est.PrivateIPC, est.SMSStallCycles)
				if in.prb != 0 {
					s = append(s, float64(est.CPL), est.AvgOverlap, est.PrivateLatency)
				}
			}
			r.samples[rec.Core] = s
			return nil
		},
	})
	if err != nil {
		return err
	}
	r.points = res.SamplePoints
	return nil
}

// reduce returns, per core, the RMS errors of the estimates at offset off of
// r's samples against refs (r.at maps r's points into them), and appends to
// comp, unless it is nil, the relative RMS errors of the CPL, overlap and
// latency estimates that follow them (a GDP or GDP-O instance's).
func (r *sharedRun) reduce(off int, refs []*sim.PrivateReference, comp *ComponentAccuracy) []BenchmarkErrors {
	var errs []BenchmarkErrors
	for core, ref := range refs {
		var ipc, stall, cpl, overlap, latency metrics.ErrorSeries
		for k := range len(r.samples[core]) / r.width {
			v := r.samples[core][k*r.width:]
			if v[0] == 0 {
				continue
			}
			actual, actualCPL, actualOverlap := ref.Window(r.at[core], k)
			if actual.Instructions == 0 || actual.Cycles == 0 {
				continue
			}
			ipc.Add(v[off], actual.IPC())
			stall.Add(v[off+1], float64(actual.StallSMS))
			if comp == nil {
				continue
			}
			if actualCPL > 0 {
				cpl.Add(v[off+2], float64(actualCPL))
			}
			if actualOverlap > 0 && v[off+3] > 0 {
				overlap.Add(v[off+3], actualOverlap)
			}
			if actual.SMSLoads > 0 && v[off+4] > 0 {
				latency.Add(v[off+4], actual.AvgSMSLatency())
			}
		}
		if ipc.Len() > 0 {
			errs = append(errs, BenchmarkErrors{
				Workload:    r.wl.ID,
				Core:        core,
				Benchmark:   r.wl.Benchmarks[core].Name,
				IPCAbsRMS:   ipc.AbsRMS(),
				IPCRelRMS:   ipc.RelRMS(),
				StallAbsRMS: stall.AbsRMS(),
				StallRelRMS: stall.RelRMS(),
			})
		}
		if comp == nil {
			continue
		}
		if cpl.Len() > 0 {
			comp.CPLRelRMS = append(comp.CPLRelRMS, cpl.RelRMS())
		}
		if overlap.Len() > 0 {
			comp.OverlapRelRMS = append(comp.OverlapRelRMS, overlap.RelRMS())
		}
		if latency.Len() > 0 {
			comp.LatencyRelRMS = append(comp.LatencyRelRMS, latency.RelRMS())
		}
	}
	return errs
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
// options). label prefixes its job labels ("" or a name ending in "/").
type accuracyStudy struct {
	label     string
	opts      AccuracyOptions
	workloads []workload.Workload
}

// simKey is the identity of a shared run: the runs of every study with equal
// keys are one simulation, and the private references of equal keys with asm
// false one set. Config compares by value; gen is zero for a study over
// explicit workloads, which has its list index in study (-1 otherwise).
type simKey struct {
	config                 config.CMPConfig
	gen                    workload.GenerateOptions
	study, workload        int
	instructions, interval uint64
	asm                    bool
}

// refSet is one reference identity of a study plan: the shared runs aligned
// on its references (the transparent one and ASM's) and what each (study,
// workload) over it reads.
type refSet struct {
	label string
	runs  []*sharedRun
	reads []studyRead
}

// studyRead is what one workload of one study reads of its reference set:
// per technique of the study, in names order, its run and its offset there.
// dst is the study's partial result for the workload.
type studyRead struct {
	cols []column
	dst  *accuracyPartial
}

// column is one technique's estimates on a shared run: their offset in the
// run's samples.
type column struct {
	technique string
	run       *sharedRun
	off       int
}

// accuracyPartial is the result of one workload's reduction: the errors its
// shared-mode runs contribute to the study.
type accuracyPartial struct {
	PerTechnique map[string][]BenchmarkErrors
	Comp         ComponentAccuracy
}

// studyPlan is a study list planned by simulation identity: its distinct
// shared runs and reference sets, and per study its options and the partial
// results its workloads' reductions fill.
type studyPlan struct {
	opts     []AccuracyOptions
	partials [][]accuracyPartial
	runs     []*sharedRun
	sets     []*refSet
}

// planStudies checks each study's options, generates its workloads unless it
// names them, and plans its work: per workload, a transparent run carrying
// its transparent techniques and an ASM run (invasive: it perturbs the memory
// controller), each shared with every study whose run has the same key, and
// one reference set per key. Runs and sets are listed in the order the study
// list first asks for them, so every job order and derived seed is fixed by
// it.
func planStudies(env CellConfig, studies []accuracyStudy) (*studyPlan, error) {
	p := &studyPlan{}
	runAt, setAt := map[simKey]*sharedRun{}, map[simKey]*refSet{}
	for k, s := range studies {
		o := s.opts.withDefaults()
		o.CellConfig = env
		key := simKey{config: *o.Config, study: k, instructions: o.InstructionsPerCore, interval: o.IntervalCycles}
		wls := s.workloads
		if wls == nil {
			key.gen = workload.GenerateOptions{Cores: o.Cores, Mix: o.Mix, Count: o.Workloads, Seed: o.Seed}
			key.study = -1
			var err error
			if wls, err = workload.Generate(key.gen); err != nil {
				return nil, err
			}
		}
		if err := o.Config.Validate(); err != nil {
			return nil, err
		}
		for _, name := range o.Techniques {
			if !slices.Contains(accounting.Names, name) {
				return nil, fmt.Errorf("experiments: unknown technique %q (want one of %v)", name, accounting.Names)
			}
		}
		p.opts = append(p.opts, o)
		p.partials = append(p.partials, make([]accuracyPartial, len(wls)))
		for i, wl := range wls {
			key.workload, key.asm = i, false
			set := setAt[key]
			if set == nil {
				set = &refSet{label: s.label + wl.ID + "/reference"}
				setAt[key] = set
				p.sets = append(p.sets, set)
			}
			rd := studyRead{dst: &p.partials[k][i]}
			for _, name := range accounting.Names {
				if !slices.Contains(o.Techniques, name) {
					continue
				}
				key.asm = name == "ASM"
				r := runAt[key]
				if r == nil {
					r = &sharedRun{label: s.label + wl.ID + "/transparent", opts: o, wl: wl, seed: o.Seed + int64(i), width: 1}
					if key.asm {
						r.label = s.label + wl.ID + "/asm"
					}
					runAt[key] = r
					p.runs = append(p.runs, r)
					set.runs = append(set.runs, r)
				}
				in := instance{name: name, technique: name}
				if name == "GDP" || name == "GDP-O" {
					in.name, in.prb = fmt.Sprintf("%s/%d", name, o.PRBEntries), o.PRBEntries
				}
				rd.cols = append(rd.cols, column{name, r, r.add(in)})
			}
			set.reads = append(set.reads, rd)
		}
	}
	return p, nil
}

// runStudies runs a list of accuracy studies in env and returns their results
// in list order. It simulates each shared run and each reference set of the
// list's plan once, whatever the cache: one pool runs every shared run, a
// second every reference set and its reductions.
func runStudies(ctx context.Context, env CellConfig, studies []accuracyStudy) ([]*AccuracyResult, error) {
	p, err := planStudies(env, studies)
	if err != nil {
		return nil, err
	}
	pool := runner.Options{Workers: env.Jobs, Progress: env.Progress, Metrics: env.Instr.pool()}
	shared := make([]runner.Job[*sharedRun], len(p.runs))
	for j, r := range p.runs {
		shared[j] = runner.Job[*sharedRun]{Label: r.label, Fn: func(ctx context.Context) (*sharedRun, error) {
			return r, r.run(ctx, env.Instr.simMetrics())
		}}
	}
	if _, err := runner.Run(ctx, shared, pool); err != nil {
		return nil, err
	}
	reduce := make([]runner.Job[[]accuracyPartial], len(p.sets))
	for j, set := range p.sets {
		reduce[j] = runner.Job[[]accuracyPartial]{Label: set.label, Fn: func(ctx context.Context) ([]accuracyPartial, error) {
			r := set.runs[0]
			refs, err := workloadReferences(ctx, env.Cache, r.opts.Config, r.wl, r.seed, unionPoints(set.runs, r.wl.Cores()))
			if err != nil {
				return nil, err
			}
			return set.reduce(refs)
		}}
	}
	partials, err := runner.Run(ctx, reduce, pool)
	if err != nil {
		return nil, err
	}
	for j, set := range p.sets {
		for n, rd := range set.reads {
			*rd.dst = partials[j][n]
		}
	}
	results := make([]*AccuracyResult, len(p.opts))
	for k, o := range p.opts {
		results[k] = foldStudy(o, p.partials[k])
	}
	return results, nil
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

// reduce maps the sample points of the set's runs into refs (r.at, as
// PrivateReference.Index does) and reduces each read of the set: per
// technique, its errors and, for the component technique (GDP-O, or GDP when
// the study has no GDP-O), its component errors.
func (set *refSet) reduce(refs []*sim.PrivateReference) (_ []accuracyPartial, err error) {
	for _, r := range set.runs {
		r.at = make([][]int, len(refs))
		for core, ref := range refs {
			if r.at[core], err = ref.Index(make([]int, 0, len(r.points[core])), r.points[core]); err != nil {
				return nil, err
			}
		}
	}
	out := make([]accuracyPartial, len(set.reads))
	for n, rd := range set.reads {
		comp := -1
		for i, c := range rd.cols {
			if c.technique == "GDP-O" || (c.technique == "GDP" && comp < 0) {
				comp = i
			}
		}
		out[n].PerTechnique = make(map[string][]BenchmarkErrors, len(rd.cols))
		for i, c := range rd.cols {
			var dst *ComponentAccuracy
			if i == comp {
				dst = &out[n].Comp
			}
			out[n].PerTechnique[c.technique] = c.run.reduce(c.off, refs, dst)
		}
	}
	return out, nil
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
