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
// skipping off (Options.Reference, which also disables request pooling and
// machine reuse) the same loop visits every cycle and ticks every component
// on it; it reproduces the pre-optimization engine exactly and anchors the
// differential tests. Both settings produce byte-identical Results.
//
// Every other run takes its simulated CMP from a pool (machine.go) and hands
// it back reset when it ends, so a warm process allocates per run only what
// the run returns.
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
	// With DiscardIntervals set, a record's Estimates map is valid only until
	// the call returns: the run reuses it for the core's next record, and the
	// next run on the same machine after that. A consumer copies what it
	// keeps.
	OnInterval func(IntervalRecord) error
	// DiscardIntervals, when true, keeps Result.Intervals empty: records are
	// only delivered through OnInterval. SamplePoints are still collected
	// (they are small and private-mode alignment depends on them). Streaming
	// consumers set this so long runs hold O(cores) instead of O(intervals)
	// memory.
	DiscardIntervals bool
	// Reference turns event skipping and request pooling off, so every cycle
	// is ticked explicitly, and runs on a machine built for the run alone,
	// never one a finished run handed back: the exact pre-optimization
	// engine, kept build-tag-free for differential testing against the
	// event-driven default. Results are byte-identical either way.
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
	m, err := startRun(opts)
	if err != nil {
		return nil, err
	}
	defer m.release()
	if err := m.runFast(ctx); err != nil {
		return nil, err
	}
	return m.res, nil // read before the deferred release drops it
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

// startRun takes a machine for opts and starts a shared-mode run on it.
func startRun(opts Options) (*machine, error) {
	m, err := acquireMachine(opts.Config, opts.Config.Cores, opts.Reference)
	if err != nil {
		return nil, err
	}
	if err := m.start(opts); err != nil {
		m.release()
		return nil, err
	}
	return m, nil
}

// start loads the workload, attaches the accountants and readies the result
// and the stepper for a shared-mode run of opts.
func (m *machine) start(opts Options) error {
	for i := range m.cores {
		if err := m.load(i, opts.Workload.Benchmarks[i], CoreSeed(opts.Seed, i)); err != nil {
			return err
		}
		for _, acct := range opts.Accountants {
			if p := acct.Probe(i); p != nil {
				m.cores[i].AttachProbe(p)
			}
		}
	}
	for _, acct := range opts.Accountants {
		if fs, ok := acct.(latencyFloorSetter); ok {
			for i := range m.cores {
				fs.SetLatencyFloor(i, m.shared.UnloadedSMSLatency(i))
			}
		}
		if cb, ok := acct.(controllerBinder); ok {
			cb.BindController(m.shared.Controller())
		}
	}

	m.opts = opts
	m.maxCycles = opts.MaxCycles
	if m.maxCycles == 0 {
		m.maxCycles = defaultMaxCycles(opts.InstructionsPerCore)
	}
	n := len(m.cores)
	m.res = &Result{
		Config:      opts.Config,
		Workload:    opts.Workload,
		CoreStats:   make([]cpu.Stats, n),
		SampleStats: make([]cpu.Stats, n),
		Intervals:   make([][]IntervalRecord, n),
	}
	clear(m.lastSnapshot)
	for i := range m.points {
		m.points[i] = m.points[i][:0]
	}
	m.done, m.flushedCycle, m.ffPending = 0, 0, 0
	m.clk.start(opts.Accountants, !opts.Reference, m.sampleRun)
	return nil
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

// newStepper wires a stepper to the hardware of a machine. Each run starts
// it afresh.
func newStepper(shared *memsys.System, cores []*cpu.Core) *stepper {
	s := &stepper{
		shared:   shared,
		cores:    cores,
		coreAt:   make([]uint64, len(cores)),
		wake:     make([]uint64, len(cores)),
		sampleAt: make([]uint64, len(cores)),
	}
	shared.OnInterferenceMiss = s.onInterferenceMiss
	return s
}

// start readies the stepper for a run with every clock at cycle 0, where
// every component is due, and every work count at zero. skip is the
// requested policy and sample the driver's look at a core's
// committed-instruction count (see sampleAt).
func (s *stepper) start(accts []accounting.Accountant, skip bool, sample func(int) uint64) {
	s.accts, s.lazy, s.sample = accts, skip, sample
	clear(s.coreAt)
	clear(s.wake)
	clear(s.sampleAt)
	s.memWake = 0
	s.visited, s.coreTicks, s.memTicks, s.spans = 0, 0, 0, 0
	s.missSyncs, s.boundarySyncs, s.completionWakes = 0, 0, 0
	s.shared.StartClock(0, !s.lazy)
}

// onInterferenceMiss is the memory system's OnInterferenceMiss hook (rule 2).
func (s *stepper) onInterferenceMiss(core int, now uint64) {
	if s.settle(core, now) {
		s.missSyncs++
	}
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
func (m *machine) runFast(ctx context.Context) error {
	opts := m.opts
	var now uint64
	last := opts.IntervalCycles - 1 // the last cycle of the interval now is in
	for now < m.maxCycles {
		target := m.clk.step(now)

		if now == last {
			last += opts.IntervalCycles
			if err := ctx.Err(); err != nil {
				return err
			}
			if m.clk.sync(now + 1) {
				m.clk.boundarySyncs++
			}
			if err := m.recordInterval(); err != nil {
				return err
			}
			m.flushMetrics(now+1, 1)
		}

		if m.done == len(m.cores) {
			now++
			break
		}

		if target > now+1 {
			// Never skip an interval boundary or the cycle budget.
			if target > last {
				target = last
			}
			if target > m.maxCycles {
				target = m.maxCycles
			}
		}
		if target > now+1 {
			m.ffPending += target - (now + 1)
			now = target
		} else {
			now++
		}
	}
	m.finish(now)
	return nil
}

// takeSample is the stepper's sample callback: it records core i's
// statistics for STP on the tick that takes it to its instruction sample.
func (m *machine) takeSample(i int) uint64 {
	core := m.cores[i]
	if core.Instructions() < m.opts.InstructionsPerCore {
		return m.opts.InstructionsPerCore
	}
	m.res.SampleStats[i] = core.Stats()
	m.done++
	return math.MaxUint64
}

// finish seals the result once the run's last cycle has been simulated. The
// sample points move into one allocation sized to fit.
func (m *machine) finish(now uint64) {
	m.clk.sync(now)
	m.res.Cycles = now
	for i, core := range m.cores {
		m.res.CoreStats[i] = core.Stats()
		if m.clk.sampleAt[i] != math.MaxUint64 { // the sample was never reached
			m.res.SampleStats[i] = core.Stats()
		}
	}
	total := 0
	for _, p := range m.points {
		total += len(p)
	}
	all := make([]uint64, total)
	m.res.SamplePoints = make([][]uint64, len(m.points))
	for i, p := range m.points {
		n := copy(all, p)
		m.res.SamplePoints[i], all = all[:n:n], all[n:]
	}
	m.flushMetrics(now, 0)
	if sink := m.opts.Metrics; sink != nil {
		sink.runs.Add(1)
	}
}

// recordInterval captures the interval deltas, queries every accountant,
// delivers the records to the streaming sink, optionally repartitions the LLC
// and resets interval state. The per-interval scratch (delta slices, record
// slice and — with DiscardIntervals — the estimate maps) is reused across
// intervals and runs, keeping the steady-state interval loop allocation-free.
func (m *machine) recordInterval() error {
	opts, res, cores := m.opts, m.res, m.cores
	for i, core := range cores {
		stats := core.Stats()
		m.intervals[i] = stats.Delta(m.lastSnapshot[i])
		m.records[i] = IntervalRecord{
			Core:              i,
			StartInstructions: m.lastSnapshot[i].Instructions,
			EndInstructions:   stats.Instructions,
			Shared:            m.intervals[i],
			Estimates:         m.estimates(i),
		}
		m.lastSnapshot[i] = stats
	}
	records := m.records
	for _, acct := range opts.Accountants {
		for i := range cores {
			records[i].Estimates[acct.Name()] = acct.Estimate(i, m.intervals[i])
		}
		acct.EndInterval()
	}
	for i := range cores {
		if !opts.DiscardIntervals {
			res.Intervals[i] = append(res.Intervals[i], records[i])
		}
		m.points[i] = append(m.points[i], records[i].EndInstructions)
	}
	if opts.OnInterval != nil {
		for i := range records {
			if err := opts.OnInterval(records[i]); err != nil {
				return err
			}
		}
	}

	if opts.Partitioner != nil {
		if m.snapshots == nil {
			m.snapshots = make([]partition.CoreSnapshot, len(cores))
		}
		for i := range cores {
			atd, snap := m.shared.ATD(i), &m.snapshots[i]
			snap.MissCurve = atd.MissCurve(snap.MissCurve) // the previous interval's array
			snap.Interval = m.intervals[i]
			if len(opts.Accountants) > 0 {
				snap.PrivateCPI = records[i].Estimates[opts.Accountants[0].Name()].PrivateCPI
			} else {
				snap.PrivateCPI = m.intervals[i].CPI()
			}
			atd.ResetCounters()
		}
		decision := opts.Partitioner.Decide(m.snapshots, opts.Config.LLC.Ways)
		_ = m.shared.SetPartition(decision.Allocation)
	} else {
		// Keep ATD counters interval-scoped even without partitioning so miss
		// curves stay meaningful for diagnostics.
		for i := range cores {
			m.shared.ATD(i).ResetCounters()
		}
	}
	return nil
}

// estimates returns the Estimates map of core i's record for this interval.
// With DiscardIntervals a record cannot outlive the interval's OnInterval
// calls, so the machine's map for core i is cleared and reused; otherwise the
// record goes into Result.Intervals with a map of its own.
func (m *machine) estimates(i int) map[string]accounting.Estimate {
	if !m.opts.DiscardIntervals {
		return make(map[string]accounting.Estimate, len(m.opts.Accountants))
	}
	if m.ests[i] == nil {
		m.ests[i] = make(map[string]accounting.Estimate, len(m.opts.Accountants))
	} else {
		clear(m.ests[i])
	}
	return m.ests[i]
}

// PrivateReference holds the interference-free ground truth (and the
// reference dataflow measurements) for one benchmark at a list of
// instruction sample points. The dataflow unit's running totals are recorded
// too, so one run serves every consumer whose points are a subset of Points:
// Index and Window read exactly what a run over that subset alone records.
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
	for i := range r.Depth {
		r.CPLAt[i], r.OverlapAt[i] = r.dataflow(i, i-1)
	}
}

// dataflow returns the reference CPL and average overlap between Points[prev]
// (the run's start when prev < 0) and Points[j]: max(0, ΔDepth) and
// ΔOverlapSum / ΔOverlapLoads (0 when no load completed), or zeros when the
// cycle budget did not reach Points[j]. prev must not exceed j.
func (r *PrivateReference) dataflow(j, prev int) (cpl uint64, overlap float64) {
	if j >= len(r.Depth) {
		return 0, 0
	}
	var depth, sum, loads uint64
	if prev >= 0 {
		depth, sum, loads = r.Depth[prev], r.OverlapSum[prev], r.OverlapLoads[prev]
	}
	if r.Depth[j] > depth {
		cpl = r.Depth[j] - depth
	}
	if n := r.OverlapLoads[j] - loads; n > 0 {
		overlap = float64(r.OverlapSum[j]-sum) / float64(n)
	}
	return cpl, overlap
}

// Index appends to dst the index in r.Points of each of points, which must be
// non-decreasing and each one of r.Points, and returns the extended slice:
// the run those points came from reads its windows through Window.
func (r *PrivateReference) Index(dst []int, points []uint64) ([]int, error) {
	if err := checkPoints(points); err != nil {
		return dst, err
	}
	j := 0
	for _, p := range points {
		for j < len(r.Points) && r.Points[j] < p {
			j++
		}
		if j == len(r.Points) || r.Points[j] != p {
			return dst, fmt.Errorf("sim: sample point %d is not one of the reference's", p)
		}
		dst = append(dst, j)
	}
	return dst, nil
}

// Window returns what a private run of the same benchmark, seed and cycle
// budget over a run's points alone records for the window ending at that
// run's point k, with idx the run's points as Index maps them: the statistics
// delta against the run's previous point (the cumulative statistics for
// k == 0), the reference CPL and the average overlap; that is, the run's
// At[k].Delta(At[k-1]), CPLAt[k] and OverlapAt[k]. A zero maxCycles derives
// the budget from the last point, so r's may be the larger one; the two only
// differ for a benchmark slower than 500 cycles per instruction.
func (r *PrivateReference) Window(idx []int, k int) (stats cpu.Stats, cpl uint64, overlap float64) {
	j, prev := idx[k], -1
	stats = r.At[j]
	if k > 0 {
		prev = idx[k-1]
		stats = stats.Delta(r.At[prev])
	}
	cpl, overlap = r.dataflow(j, prev)
	return stats, cpl, overlap
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
	m, err := acquireMachine(cfg, 1, reference)
	if err != nil {
		return nil, err
	}
	defer m.release()
	return m.runPrivate(ctx, bench, samplePoints, seed, maxCycles, reference)
}

// runPrivate runs bench alone on core 0 of m for the runPrivate function.
func (m *machine) runPrivate(ctx context.Context, bench workload.Benchmark, samplePoints []uint64, seed int64, maxCycles uint64, reference bool) (*PrivateReference, error) {
	if err := m.load(0, bench, seed); err != nil {
		return nil, err
	}
	if m.ref == nil {
		ref, err := gdpcore.New(gdpcore.Options{PRBEntries: referencePRBEntries, TrackOverlap: true})
		if err != nil {
			return nil, err
		}
		m.ref = ref
	}
	core := m.cores[0]
	core.AttachProbe(m.ref)

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
	if n := len(samplePoints); n > 0 {
		// Every point is recorded or padded, and at most n are reached, so
		// nothing grows during the run; the three running totals share one
		// array.
		out.At = make([]cpu.Stats, 0, n)
		totals := make([]uint64, 3*n)
		out.Depth, out.OverlapSum, out.OverlapLoads = totals[:0:n], totals[n:n:2*n], totals[2*n:2*n:3*n]
	}
	m.priv = privateRun{core: core, ref: m.ref, out: out, points: samplePoints}
	clk := m.clk
	clk.start(nil, !reference, m.samplePriv)
	now := uint64(0)
	for now < maxCycles {
		if now%privateCancelCheckCycles == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		skipTo := clk.step(now)
		if m.priv.finished {
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
	if len(out.Depth) == 0 {
		// No point reached: no running totals, as such a reference has
		// always been recorded (and encoded in cache entries).
		out.Depth, out.OverlapSum, out.OverlapLoads = nil, nil, nil
	}
	out.derive()
	return out, nil
}
