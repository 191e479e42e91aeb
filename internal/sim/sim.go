// Package sim drives complete simulations of the modeled CMP: it instantiates
// the cores and the shared memory system, attaches accounting techniques,
// advances everything in lockstep, collects per-interval estimates, applies a
// cache-partitioning policy at repartitioning intervals, and produces the
// aligned shared-mode / private-mode measurements the paper's evaluation
// methodology requires (Section VI).
//
// One step loop drives every run, with a skip policy that is on or off. By
// default the loop is event-driven and every component — each core, the
// shared memory system — runs on its own clock: the loop visits a cycle when
// at least one component has an event there, ticks only the components that
// do, and lets the others fall behind until their own next event, a
// completion delivered to them or a synchronisation point, where the
// per-cycle bookkeeping of the span they sat out (stall counters, probe
// snapshots, DRAM queue-interference charges) is applied in closed form.
// Cycles on which no component has an event are not visited at all. With
// skipping off (Options.Reference, which also disables request pooling) the
// same loop visits every cycle and ticks every component on it; it
// reproduces the pre-optimization engine exactly and anchors the differential
// tests. Both settings produce byte-identical Results.
package sim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/accounting"
	"repro/internal/config"
	gdpcore "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/partition"
	"repro/internal/workload"
)

// CoreSeed derives the per-core trace seed of a shared-mode run from the
// run's base seed: a generator built with it yields exactly the instruction
// stream a run with the same base seed feeds that core.
func CoreSeed(seed int64, core int) int64 { return seed + int64(core)*7919 }

// Options configure one shared-mode simulation run.
type Options struct {
	// Config describes the CMP. Required.
	Config *config.CMPConfig
	// Workload assigns one benchmark per core. Its size must match the core
	// count. Required.
	Workload workload.Workload
	// InstructionsPerCore is the per-benchmark instruction sample. The run
	// ends when every core has committed this many instructions (benchmarks
	// keep executing past their sample, as in the paper, so contention does
	// not artificially drop). Required.
	InstructionsPerCore uint64
	// IntervalCycles is the accounting / repartitioning interval (the paper
	// uses 5M cycles on full-size samples; scaled runs use smaller values).
	IntervalCycles uint64
	// Seed randomizes the synthetic traces. Core i's generator is seeded with
	// CoreSeed(Seed, i).
	Seed int64
	// Accountants are attached to the run and produce per-interval estimates.
	Accountants []accounting.Accountant
	// Partitioner, when non-nil, repartitions the LLC every interval, fed
	// with the first accountant's private-CPI estimates, or with shared-mode
	// CPI when there are none.
	Partitioner partition.Policy
	// MaxCycles bounds the run as a safety net. Zero selects a generous
	// default derived from the instruction budget.
	MaxCycles uint64
	// OnInterval, when non-nil, receives every IntervalRecord as soon as its
	// interval completes (records arrive in core order within an interval and
	// in time order across intervals). A non-nil return aborts the run with
	// that error. This is the streaming path: consumers observe estimates
	// while the simulation advances instead of waiting for the full Result.
	OnInterval func(IntervalRecord) error
	// DiscardIntervals, when true, keeps Result.Intervals empty: records are
	// only delivered through OnInterval. SamplePoints are still collected
	// (they are small and private-mode alignment depends on them). Streaming
	// consumers set this so long runs hold O(cores) instead of O(intervals)
	// memory.
	DiscardIntervals bool
	// Reference turns event skipping and request pooling off, so every cycle
	// is ticked explicitly: the exact pre-optimization engine, kept
	// build-tag-free for differential testing against the event-driven
	// default. Results are byte-identical either way.
	Reference bool
	// Workers is accepted and ignored: it selected the width of an
	// intra-simulation threaded driver that was measured and removed. Negative
	// values still fail validation. Its last reader is the benchmark ledger's
	// sim.run_16c_workers2 probe; the field goes away with the next
	// benchmark-only PR.
	Workers int
	// Metrics, when non-nil, receives run/interval/cycle counters. Updates
	// are batched at interval boundaries so the hot loop stays untouched.
	Metrics *Metrics
}

// IntervalRecord is one per-core, per-interval measurement with the estimates
// every attached accountant produced for it.
type IntervalRecord struct {
	Core              int
	StartInstructions uint64
	EndInstructions   uint64
	Shared            cpu.Stats
	Estimates         map[string]accounting.Estimate
}

// Result is the outcome of a shared-mode run.
type Result struct {
	Config    *config.CMPConfig
	Workload  workload.Workload
	Cycles    uint64
	CoreStats []cpu.Stats
	// SampleStats[i] is core i's cumulative statistics at the moment it
	// committed its instruction sample (used for STP).
	SampleStats []cpu.Stats
	// Intervals[i] lists core i's interval records in time order.
	Intervals [][]IntervalRecord
	// SamplePoints[i] lists core i's cumulative instruction counts at the end
	// of every interval; private-mode runs align on these points.
	SamplePoints [][]uint64
}

// validate checks the options.
func (o *Options) validate() error {
	if o.Config == nil {
		return fmt.Errorf("sim: Config is required")
	}
	if err := o.Config.Validate(); err != nil {
		return err
	}
	if o.Workload.Cores() != o.Config.Cores {
		return fmt.Errorf("sim: workload has %d benchmarks for %d cores", o.Workload.Cores(), o.Config.Cores)
	}
	if o.InstructionsPerCore == 0 {
		return fmt.Errorf("sim: InstructionsPerCore is required")
	}
	if o.IntervalCycles == 0 {
		return fmt.Errorf("sim: IntervalCycles is required")
	}
	if o.Workers < 0 {
		return fmt.Errorf("sim: Workers = %d, must be >= 0", o.Workers)
	}
	return nil
}

// latencyFloorSetter is implemented by accountants that want the unloaded SMS
// latency as a lower bound for their private-latency estimates.
type latencyFloorSetter interface {
	SetLatencyFloor(core int, floor uint64)
}

// controllerBinder is implemented by invasive accountants (ASM) that need a
// handle on the memory controller of the run they are attached to.
type controllerBinder interface {
	BindController(c *dram.Controller)
}

// samplePointCapHint bounds the pre-allocated per-core sample-point capacity.
const samplePointCapHint = 4096

// runState holds one shared-mode run in flight: the instantiated hardware,
// the accumulating result and the reusable per-interval scratch (so the
// steady-state interval loop performs no heap allocations).
type runState struct {
	opts      Options
	shared    *memsys.System
	cores     []*cpu.Core
	res       *Result
	maxCycles uint64

	lastSnapshot []cpu.Stats

	// Reusable per-interval scratch.
	intervals []cpu.Stats
	records   []IntervalRecord
	snapshots []partition.CoreSnapshot
	// reuseEstimates reports that interval records never escape the run
	// (DiscardIntervals set and no OnInterval sink), so their Estimates maps
	// can be recycled across intervals.
	reuseEstimates bool

	// clk steps the hardware and the accountants, each on its own clock
	// (runFast builds it).
	clk *stepper
	// done counts the cores that have committed their instruction sample.
	done int

	// Telemetry accumulators: plain fields the drivers advance on the hot
	// path and flushMetrics publishes atomically at interval boundaries.
	flushedCycle uint64
	ffPending    uint64
}

// Run executes a shared-mode simulation under a context. Cancellation
// is checked before the first cycle and at every interval boundary, so an
// already-expired context returns its error without completing a single
// interval and a mid-run cancellation aborts within one interval's worth of
// cycles.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := newRunState(opts)
	if err != nil {
		return nil, err
	}
	if err := st.runFast(ctx); err != nil {
		return nil, err
	}
	return st.res, nil
}

// defaultMaxCyclesMultiplier derives the default cycle budget from the
// instruction budget (a generous bound: even a fully memory-bound workload
// stays well under 500 CPI).
const defaultMaxCyclesMultiplier = 500

// defaultMaxCycles returns instructions * defaultMaxCyclesMultiplier,
// saturating at math.MaxUint64 instead of wrapping: a huge instruction sample
// must select an effectively unbounded budget, not a tiny one.
func defaultMaxCycles(instructions uint64) uint64 {
	if instructions > math.MaxUint64/defaultMaxCyclesMultiplier {
		return math.MaxUint64
	}
	return instructions * defaultMaxCyclesMultiplier
}

// newRunState instantiates the CMP for one shared-mode run.
func newRunState(opts Options) (*runState, error) {
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = defaultMaxCycles(opts.InstructionsPerCore)
	}

	shared, err := memsys.New(opts.Config)
	if err != nil {
		return nil, err
	}
	if opts.Reference {
		shared.DisableRecycling()
	}
	cores := make([]*cpu.Core, opts.Config.Cores)
	for i := range cores {
		gen, err := opts.Workload.Benchmarks[i].NewGenerator(CoreSeed(opts.Seed, i))
		if err != nil {
			return nil, err
		}
		core, err := cpu.New(i, opts.Config, gen, shared)
		if err != nil {
			return nil, err
		}
		for _, acct := range opts.Accountants {
			if p := acct.Probe(i); p != nil {
				core.AttachProbe(p)
			}
		}
		cores[i] = core
	}
	for _, acct := range opts.Accountants {
		if fs, ok := acct.(latencyFloorSetter); ok {
			for i := range cores {
				fs.SetLatencyFloor(i, shared.UnloadedSMSLatency(i))
			}
		}
		if cb, ok := acct.(controllerBinder); ok {
			cb.BindController(shared.Controller())
		}
	}

	res := &Result{
		Config:       opts.Config,
		Workload:     opts.Workload,
		CoreStats:    make([]cpu.Stats, len(cores)),
		SampleStats:  make([]cpu.Stats, len(cores)),
		Intervals:    make([][]IntervalRecord, len(cores)),
		SamplePoints: make([][]uint64, len(cores)),
	}
	spCap := maxCycles / opts.IntervalCycles
	if spCap >= samplePointCapHint {
		spCap = samplePointCapHint
	} else {
		spCap++
	}
	for i := range res.SamplePoints {
		res.SamplePoints[i] = make([]uint64, 0, spCap)
	}

	st := &runState{
		opts:           opts,
		shared:         shared,
		cores:          cores,
		res:            res,
		maxCycles:      maxCycles,
		lastSnapshot:   make([]cpu.Stats, len(cores)),
		intervals:      make([]cpu.Stats, len(cores)),
		records:        make([]IntervalRecord, len(cores)),
		reuseEstimates: opts.DiscardIntervals && opts.OnInterval == nil,
	}
	return st, nil
}

// stepper advances the cores and the shared memory system of one run, each
// component on its own clock, and hands completed requests to the
// accountants. The step loop decides which cycles to visit; on a visited
// cycle the stepper ticks only the components that are due. One it leaves
// out falls behind: the per-cycle bookkeeping of the cycles it sat out is
// applied in closed form (FastForward) when it is next ticked or at a
// synchronisation point. coreAt[i] are the cores' clocks — bookkeeping is
// applied for every cycle below them; the memory system keeps its
// controller's clock itself and catches up on Settle — and wake[i] and
// memWake hold the NextEvent bound each component gave after its last tick,
// valid until input reaches it from outside: a completion for a core (which
// is then ticked whatever its bound), a Submit for the memory system (whose
// bound is then taken again). Accountants have no clock: they see only the
// cores' probe events, completed requests and Estimate, and ASM's priority
// rotation is a function of the cycle the controller evaluates on its own
// ticks.
//
// A deferred span is sound only while nothing its closed form reads changes,
// so a component is caught up before each of these:
//
//  1. its own Tick, and for a core any CompleteRequest;
//  2. the memory system marking an in-flight request of a core as an
//     interference miss (the core's idle snapshot counts those flags and ITCA
//     reads them): memsys.System.OnInterferenceMiss settles that core first;
//  3. every interval boundary, before recordInterval reads statistics,
//     estimates and in-flight interference, and the end of the run.
type stepper struct {
	shared *memsys.System
	cores  []*cpu.Core
	accts  []accounting.Accountant
	// lazy is the skip policy. It is off under Options.Reference: every cycle
	// is visited and every component ticked on it.
	lazy bool

	coreAt, wake []uint64
	memWake      uint64

	// sampleAt[i] is the committed-instruction count at which the driver next
	// wants to look at core i: the first tick that takes the core there or
	// beyond calls sample(i), which returns the next such count
	// (math.MaxUint64: none). It starts at 0, so a core's first tick calls it.
	sampleAt []uint64
	sample   func(i int) uint64

	// Exact work counts for the in-package tests: cycles visited, Ticks
	// executed, cores' idle spans applied in closed form, and how often each
	// cause other than a component's own bound settled or woke one that had
	// fallen behind.
	visited, coreTicks, memTicks, spans       uint64
	missSyncs, boundarySyncs, completionWakes uint64
}

// newStepper wires a stepper to the hardware with every clock at cycle 0,
// where every component is due. skip is the requested policy and sample the
// driver's look at a core's committed-instruction count (see sampleAt).
func newStepper(shared *memsys.System, cores []*cpu.Core, accts []accounting.Accountant, skip bool, sample func(int) uint64) *stepper {
	s := &stepper{
		shared:   shared,
		cores:    cores,
		accts:    accts,
		lazy:     skip,
		coreAt:   make([]uint64, len(cores)),
		wake:     make([]uint64, len(cores)),
		sampleAt: make([]uint64, len(cores)),
		sample:   sample,
	}
	shared.StartClock(0, !s.lazy)
	shared.OnInterferenceMiss = func(core int, now uint64) { // rule 2
		if s.settle(core, now) {
			s.missSyncs++
		}
	}
	return s
}

// settle applies core i's deferred bookkeeping for the cycles below to and
// reports whether it had fallen behind.
func (s *stepper) settle(i int, to uint64) bool {
	if s.coreAt[i] >= to {
		return false
	}
	s.cores[i].FastForward(s.coreAt[i], to)
	s.coreAt[i] = to
	s.spans++
	return true
}

// sync settles every component up to cycle to and reports whether any had
// fallen behind.
func (s *stepper) sync(to uint64) (behind bool) {
	for i := range s.cores {
		behind = s.settle(i, to) || behind
	}
	return s.shared.Settle(to) || behind
}

// step simulates the visited cycle now — the memory system, then the cores in
// index order, leaving out every component that is not due — in one pass over
// the cores. It returns the earliest cycle after now at which any component
// is due (math.MaxUint64 when everything waits forever, which the caller
// caps), or now+1 with the skip policy off.
func (s *stepper) step(now uint64) uint64 {
	s.visited++
	memTicked := !s.lazy || s.memWake <= now
	if memTicked {
		s.shared.Tick(now)
		s.memTicks++
	}
	submitted := s.shared.Submitted()
	next := uint64(math.MaxUint64)
	for i, core := range s.cores {
		var completed []*mem.Request
		if memTicked {
			completed = s.shared.Completed(i)
		}
		if s.lazy && s.wake[i] > now {
			if len(completed) == 0 {
				next = min(next, s.wake[i])
				continue
			}
			s.completionWakes++
		}
		s.settle(i, now)
		for _, req := range completed {
			core.CompleteRequest(req, now)
			for _, acct := range s.accts {
				acct.ObserveRequest(i, req)
			}
		}
		core.Tick(now)
		s.coreAt[i] = now + 1
		s.coreTicks++
		if core.Instructions() >= s.sampleAt[i] {
			s.sampleAt[i] = s.sample(i)
		}
		if s.lazy {
			s.wake[i] = core.NextEvent(now)
			next = min(next, s.wake[i])
		}
	}
	if !s.lazy {
		return now + 1
	}
	if memTicked || s.shared.Submitted() != submitted {
		s.memWake = s.shared.NextEvent(now)
	}
	return min(next, s.memWake)
}

// runFast is the step loop: after every visited cycle it takes the earliest
// cycle at which any component is due and, when that lies beyond the next
// cycle, jumps there in a single step. Nothing is simulated for the cycles in
// between: each component's clock records where it stopped, and the stepper
// applies the span's per-cycle bookkeeping in closed form when it catches the
// component up, so the Result is byte-identical to a run with skipping off,
// where every cycle is visited and every component ticked on it.
func (st *runState) runFast(ctx context.Context) error {
	opts := st.opts
	st.clk = newStepper(st.shared, st.cores, opts.Accountants, !opts.Reference, st.takeSample)
	var now uint64
	last := opts.IntervalCycles - 1 // the last cycle of the interval now is in
	for now < st.maxCycles {
		target := st.clk.step(now)

		if now == last {
			last += opts.IntervalCycles
			if err := ctx.Err(); err != nil {
				return err
			}
			if st.clk.sync(now + 1) {
				st.clk.boundarySyncs++
			}
			if err := st.recordInterval(); err != nil {
				return err
			}
			st.flushMetrics(now+1, 1)
		}

		if st.done == len(st.cores) {
			now++
			break
		}

		if target > now+1 {
			// Never skip an interval boundary or the cycle budget.
			if target > last {
				target = last
			}
			if target > st.maxCycles {
				target = st.maxCycles
			}
		}
		if target > now+1 {
			st.ffPending += target - (now + 1)
			now = target
		} else {
			now++
		}
	}
	st.finish(now)
	return nil
}

// takeSample is the stepper's sample callback: it records core i's
// statistics for STP on the tick that takes it to its instruction sample.
func (st *runState) takeSample(i int) uint64 {
	core := st.cores[i]
	if core.Instructions() < st.opts.InstructionsPerCore {
		return st.opts.InstructionsPerCore
	}
	st.res.SampleStats[i] = core.Stats()
	st.done++
	return math.MaxUint64
}

// finish seals the result once the run's last cycle has been simulated.
func (st *runState) finish(now uint64) {
	st.clk.sync(now)
	st.res.Cycles = now
	for i, core := range st.cores {
		st.res.CoreStats[i] = core.Stats()
		if st.clk.sampleAt[i] != math.MaxUint64 { // the sample was never reached
			st.res.SampleStats[i] = core.Stats()
		}
	}
	st.flushMetrics(now, 0)
	if m := st.opts.Metrics; m != nil {
		m.runs.Add(1)
	}
}

// recordInterval captures the interval deltas, queries every accountant,
// delivers the records to the streaming sink, optionally repartitions the LLC
// and resets interval state. The per-interval scratch (delta slices, record
// slice and — when records cannot escape — the estimate maps) is reused
// across intervals, keeping the steady-state interval loop allocation-free.
func (st *runState) recordInterval() error {
	opts, res, cores := st.opts, st.res, st.cores
	for i, core := range cores {
		stats := core.Stats()
		st.intervals[i] = stats.Delta(st.lastSnapshot[i])
		var ests map[string]accounting.Estimate
		if st.reuseEstimates && st.records[i].Estimates != nil {
			ests = st.records[i].Estimates
			clear(ests)
		} else {
			ests = make(map[string]accounting.Estimate, len(opts.Accountants))
		}
		st.records[i] = IntervalRecord{
			Core:              i,
			StartInstructions: st.lastSnapshot[i].Instructions,
			EndInstructions:   stats.Instructions,
			Shared:            st.intervals[i],
			Estimates:         ests,
		}
		st.lastSnapshot[i] = stats
	}
	records := st.records
	for _, acct := range opts.Accountants {
		for i := range cores {
			records[i].Estimates[acct.Name()] = acct.Estimate(i, st.intervals[i])
		}
		acct.EndInterval()
	}
	for i := range cores {
		if !opts.DiscardIntervals {
			res.Intervals[i] = append(res.Intervals[i], records[i])
		}
		res.SamplePoints[i] = append(res.SamplePoints[i], records[i].EndInstructions)
	}
	if opts.OnInterval != nil {
		for i := range records {
			if err := opts.OnInterval(records[i]); err != nil {
				return err
			}
		}
	}

	if opts.Partitioner != nil {
		if st.snapshots == nil {
			st.snapshots = make([]partition.CoreSnapshot, len(cores))
		}
		for i := range cores {
			atd := st.shared.ATD(i)
			st.snapshots[i] = partition.CoreSnapshot{
				MissCurve: atd.MissCurve(),
				Interval:  st.intervals[i],
			}
			if len(opts.Accountants) > 0 {
				st.snapshots[i].PrivateCPI = records[i].Estimates[opts.Accountants[0].Name()].PrivateCPI
			} else {
				st.snapshots[i].PrivateCPI = st.intervals[i].CPI()
			}
			atd.ResetCounters()
		}
		decision := opts.Partitioner.Decide(st.snapshots, opts.Config.LLC.Ways)
		_ = st.shared.SetPartition(decision.Allocation)
	} else {
		// Keep ATD counters interval-scoped even without partitioning so miss
		// curves stay meaningful for diagnostics.
		for i := range cores {
			st.shared.ATD(i).ResetCounters()
		}
	}
	return nil
}

// PrivateReference holds the interference-free ground truth (and the
// reference dataflow measurements) for one benchmark at a list of
// instruction sample points. The dataflow unit's running totals are recorded
// too, so one run serves every consumer whose points are a subset of Points:
// Align derives exactly what a run over that subset alone records.
type PrivateReference struct {
	Benchmark string
	// Total is the cumulative statistics at the end of the private run.
	Total cpu.Stats
	// Points are the instruction sample points, non-decreasing.
	Points []uint64
	// At[i] is the cumulative statistics when the benchmark reached Points[i]
	// (Total for a point the cycle budget did not reach).
	At []cpu.Stats
	// CPLAt[i] and OverlapAt[i] are the reference (unbounded-buffer) dataflow
	// CPL and average overlap measured in the private mode between points i-1
	// and i (0 for a point the cycle budget did not reach).
	CPLAt     []uint64
	OverlapAt []float64
	// Depth[i], OverlapSum[i] and OverlapLoads[i] are the reference unit's
	// running PCB depth, overlap cycles of completed SMS loads and count of
	// those loads at Points[i], for the points reached within the cycle
	// budget. CPLAt[i] is max(0, ΔDepth) and OverlapAt[i] is ΔOverlapSum /
	// ΔOverlapLoads (0 when no load completed), Δ taken against point i-1.
	Depth        []uint64
	OverlapSum   []uint64
	OverlapLoads []uint64
}

// derive fills CPLAt and OverlapAt from the running totals.
func (r *PrivateReference) derive() {
	r.CPLAt = make([]uint64, len(r.At))
	r.OverlapAt = make([]float64, len(r.At))
	var depth, sum, loads uint64
	for i := range r.Depth {
		if r.Depth[i] > depth {
			r.CPLAt[i] = r.Depth[i] - depth
		}
		if n := r.OverlapLoads[i] - loads; n > 0 {
			r.OverlapAt[i] = float64(r.OverlapSum[i]-sum) / float64(n)
		}
		depth, sum, loads = r.Depth[i], r.OverlapSum[i], r.OverlapLoads[i]
	}
}

// Align returns the reference a private run of the same benchmark, seed and
// cycle budget over points alone records: its At, CPLAt and OverlapAt are
// identical to that run's. points must be non-decreasing and each one of
// r.Points. Total stays r's, which ran to r's last point. A zero maxCycles
// derives the budget from the last point, so r's may be the larger one; the
// two only differ for a benchmark slower than 500 cycles per instruction.
func (r *PrivateReference) Align(points []uint64) (*PrivateReference, error) {
	if err := checkPoints(points); err != nil {
		return nil, err
	}
	out := &PrivateReference{Benchmark: r.Benchmark, Total: r.Total, Points: slices.Clone(points)}
	j := 0
	for _, p := range points {
		for j < len(r.Points) && r.Points[j] < p {
			j++
		}
		if j == len(r.Points) || r.Points[j] != p {
			return nil, fmt.Errorf("sim: sample point %d is not one of the reference's", p)
		}
		out.At = append(out.At, r.At[j])
		if j < len(r.Depth) {
			out.Depth = append(out.Depth, r.Depth[j])
			out.OverlapSum = append(out.OverlapSum, r.OverlapSum[j])
			out.OverlapLoads = append(out.OverlapLoads, r.OverlapLoads[j])
		}
	}
	out.derive()
	return out, nil
}

// checkPoints rejects a decreasing sample-point list: a smaller later point
// would count as reached at once and be recorded against the wrong window.
func checkPoints(points []uint64) error {
	for i := 1; i < len(points); i++ {
		if points[i] < points[i-1] {
			return fmt.Errorf("sim: sample points decrease at index %d (%d after %d)", i, points[i], points[i-1])
		}
	}
	return nil
}

// privateCancelCheckCycles is how often RunPrivate polls its context.
// Private runs have no interval boundaries, so a fixed cycle stride bounds
// the cancellation latency instead (the fast driver also caps its skips at
// this stride, so cancellation responsiveness is preserved).
const privateCancelCheckCycles = 4096

// RunPrivate executes a benchmark alone on the CMP (all other cores idle) and
// records its statistics at the supplied instruction sample points, which
// come from shared-mode runs (Section VI's alignment methodology) and must
// not decrease. maxCycles bounds the run; zero selects a generous default
// derived from the last sample point. ctx is polled every
// privateCancelCheckCycles cycles. It uses the event-driven fast driver;
// runPrivate with reference set is the cycle-by-cycle twin for differential
// tests.
func RunPrivate(ctx context.Context, cfg *config.CMPConfig, bench workload.Benchmark, samplePoints []uint64, seed int64, maxCycles uint64) (*PrivateReference, error) {
	return runPrivate(ctx, cfg, bench, samplePoints, seed, maxCycles, false)
}

// referencePRBEntries sizes the private reference's dataflow unit (overlap
// tracking on). 4096 is "unbounded": on the eight named scenarios at most 27
// PRB entries are live at once, so the reference never drops a request.
const referencePRBEntries = 4096

// runPrivate is the private-mode run: one core and the memory system on the
// shared-mode stepper, visiting cycles by the same rule. reference selects the
// cycle-by-cycle engine (no event skipping, no request pooling).
func runPrivate(ctx context.Context, cfg *config.CMPConfig, bench workload.Benchmark, samplePoints []uint64, seed int64, maxCycles uint64, reference bool) (*PrivateReference, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkPoints(samplePoints); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shared, err := memsys.New(cfg)
	if err != nil {
		return nil, err
	}
	if reference {
		shared.DisableRecycling()
	}
	gen, err := bench.NewGenerator(seed)
	if err != nil {
		return nil, err
	}
	core, err := cpu.New(0, cfg, gen, shared)
	if err != nil {
		return nil, err
	}
	ref, err := gdpcore.New(gdpcore.Options{PRBEntries: referencePRBEntries, TrackOverlap: true})
	if err != nil {
		return nil, err
	}
	core.AttachProbe(ref)

	var target uint64
	if len(samplePoints) > 0 {
		target = samplePoints[len(samplePoints)-1]
	}
	if maxCycles == 0 {
		budget := target + 1000
		if budget < target {
			budget = math.MaxUint64 // the addition wrapped
		}
		maxCycles = defaultMaxCycles(budget)
	}

	out := &PrivateReference{Benchmark: bench.Name, Points: slices.Clone(samplePoints)}
	next, finished := 0, false
	// record takes every sample point the core's count has reached and
	// returns the next one; past the last point the run is finished.
	record := func(int) uint64 {
		stats := core.Stats()
		for next < len(samplePoints) && stats.Instructions >= samplePoints[next] {
			depth, sum, loads := ref.Totals()
			out.At = append(out.At, stats)
			out.Depth = append(out.Depth, depth)
			out.OverlapSum = append(out.OverlapSum, sum)
			out.OverlapLoads = append(out.OverlapLoads, loads)
			next++
		}
		if next < len(samplePoints) {
			return samplePoints[next]
		}
		finished = true
		return math.MaxUint64
	}
	clk := newStepper(shared, []*cpu.Core{core}, nil, !reference, record)
	now := uint64(0)
	for now < maxCycles {
		if now%privateCancelCheckCycles == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		skipTo := clk.step(now)
		if finished {
			now++
			break
		}
		if skipTo > now+1 {
			// Preserve the cancellation poll stride and the cycle budget.
			if poll := now - now%privateCancelCheckCycles + privateCancelCheckCycles; skipTo > poll {
				skipTo = poll
			}
			if skipTo > maxCycles {
				skipTo = maxCycles
			}
			now = skipTo
		} else {
			now++
		}
	}
	clk.sync(now)
	out.Total = core.Stats()
	// Pad missing sample points (if the cycle budget ran out) with the final
	// statistics so downstream indexing stays aligned.
	for len(out.At) < len(samplePoints) {
		out.At = append(out.At, out.Total)
	}
	out.derive()
	return out, nil
}
