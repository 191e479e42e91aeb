package sim

import (
	"math"
	"sync"

	"repro/internal/accounting"
	"repro/internal/config"
	gdpcore "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/workload"
)

// machineKey names the machines one pool holds: the CMP configuration, by
// value, and the number of cores a run drives on it (the configuration's
// count in shared mode, one in private mode).
type machineKey struct {
	cfg   config.CMPConfig
	cores int
}

// machine is one simulated CMP together with everything a run on it needs
// besides what the run returns: the shared memory system, the cores and their
// trace generators, the private reference's dataflow unit, the stepper and
// the shared-mode run's scratch. A run takes a machine from the pool of its
// key and hands it back reset when it ends, whether it succeeded, failed or
// was cancelled, so a process that keeps simulating allocates per run only
// the run's result. Options.Reference runs build a machine of their own and
// never pool it.
type machine struct {
	key machineKey
	// pool is where release hands the machine back; nil for a machine that is
	// never pooled.
	pool *sync.Pool

	shared *memsys.System
	cores  []*cpu.Core
	gens   []*trace.Generator
	// ref is the private reference's unit, built by the machine's first
	// private run.
	ref *gdpcore.GDP
	clk *stepper
	// sampleRun and samplePriv are takeSample and priv.record bound once, so
	// starting a run allocates no closure.
	sampleRun, samplePriv func(int) uint64

	// The shared-mode run in flight.
	opts      Options
	res       *Result
	maxCycles uint64

	lastSnapshot []cpu.Stats

	// Reusable per-interval scratch.
	intervals []cpu.Stats
	records   []IntervalRecord
	snapshots []partition.CoreSnapshot
	// ests[i] is core i's Estimates map while DiscardIntervals keeps records
	// from outliving their interval.
	ests []map[string]accounting.Estimate
	// points[i] collects core i's sample points; finish copies them into the
	// Result.
	points [][]uint64

	// done counts the cores that have committed their instruction sample.
	done int

	// Telemetry accumulators: plain fields the drivers advance on the hot
	// path and flushMetrics publishes atomically at interval boundaries.
	flushedCycle uint64
	ffPending    uint64

	// priv is the private-mode run in flight.
	priv privateRun
}

// machines holds one pool per machine key.
var machines = struct {
	sync.Mutex
	pools map[machineKey]*sync.Pool
}{pools: map[machineKey]*sync.Pool{}}

// acquireMachine returns a machine running cores cores on cfg: a reset one
// from its pool when there is one, a new one otherwise. A reference machine
// is always new and never goes back to a pool, and neither does one whose
// configuration holds a NaN (its key matches no key, itself included).
func acquireMachine(cfg *config.CMPConfig, cores int, reference bool) (*machine, error) {
	k := machineKey{cfg: *cfg, cores: cores}
	var pool *sync.Pool
	if !reference && k == k { // k != k when a float in the configuration is NaN
		machines.Lock()
		if pool = machines.pools[k]; pool == nil {
			pool = &sync.Pool{}
			machines.pools[k] = pool
		}
		machines.Unlock()
		if m, ok := pool.Get().(*machine); ok {
			return m, nil
		}
	}
	m, err := newMachine(k)
	if err != nil {
		return nil, err
	}
	m.pool = pool
	if reference {
		m.shared.DisableRecycling()
	}
	return m, nil
}

// newMachine builds the memory system and the run scratch of a machine. The
// cores and their generators follow on the first load of each.
func newMachine(k machineKey) (*machine, error) {
	m := &machine{
		key:          k,
		cores:        make([]*cpu.Core, k.cores),
		gens:         make([]*trace.Generator, k.cores),
		lastSnapshot: make([]cpu.Stats, k.cores),
		intervals:    make([]cpu.Stats, k.cores),
		records:      make([]IntervalRecord, k.cores),
		ests:         make([]map[string]accounting.Estimate, k.cores),
		points:       make([][]uint64, k.cores),
	}
	shared, err := memsys.New(&m.key.cfg)
	if err != nil {
		return nil, err
	}
	m.shared = shared
	m.clk = newStepper(shared, m.cores)
	m.sampleRun, m.samplePriv = m.takeSample, m.priv.record
	return m, nil
}

// load readies core i to run bench from seed: a reused machine re-seeds the
// core's generator, a new one builds the core and its generator.
func (m *machine) load(i int, bench workload.Benchmark, seed int64) error {
	if g := m.gens[i]; g != nil {
		return g.Reset(bench.Params, seed)
	}
	gen, err := bench.NewGenerator(seed)
	if err != nil {
		return err
	}
	core, err := cpu.New(i, &m.key.cfg, gen, m.shared)
	if err != nil {
		return err
	}
	m.gens[i], m.cores[i] = gen, core
	return nil
}

// release resets a pooled machine to what its constructors built and hands
// it back to its pool. A machine without a pool is left to the collector.
func (m *machine) release() {
	if m.pool == nil {
		return
	}
	m.reset()
	m.pool.Put(m)
}

// reset returns the hardware to what the constructors build and drops the
// finished run's references. The generators are re-seeded by the next load.
func (m *machine) reset() {
	m.shared.Reset()
	for _, c := range m.cores {
		if c != nil {
			c.Reset()
		}
	}
	if m.ref != nil {
		m.ref.Reset()
	}
	m.clk.accts = nil
	m.opts, m.res = Options{}, nil
	clear(m.records)
	clear(m.snapshots)
	m.priv = privateRun{}
}

// privateRun is the private-mode run in flight on a machine.
type privateRun struct {
	core     *cpu.Core
	ref      *gdpcore.GDP
	out      *PrivateReference
	points   []uint64
	next     int
	finished bool
}

// record is the private run's sample callback: it takes every sample point
// the core's count has reached and returns the next one; past the last point
// the run is finished. runPrivate sized the per-point slices for all of them.
func (p *privateRun) record(int) uint64 {
	stats := p.core.Stats()
	out := p.out
	for p.next < len(p.points) && stats.Instructions >= p.points[p.next] {
		depth, sum, loads := p.ref.Totals()
		out.At = append(out.At, stats)
		out.Depth = append(out.Depth, depth)
		out.OverlapSum = append(out.OverlapSum, sum)
		out.OverlapLoads = append(out.OverlapLoads, loads)
		p.next++
	}
	if p.next < len(p.points) {
		return p.points[p.next]
	}
	p.finished = true
	return math.MaxUint64
}
