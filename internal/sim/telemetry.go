package sim

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// Metrics aggregates engine-level simulation counters across runs: completed
// runs, recorded intervals, simulated cycles and the subset of cycles the
// step loop did not visit because no component had an event there (the finer
// saving of ticking only the due components on a visited cycle is not counted).
// Scrape-time rates (intervals/sec) and the fast-forward fraction fall out of
// these counters.
//
// The hot path never touches Metrics directly: drivers accumulate into plain
// uint64 fields on the run's machine and flush with a handful of atomic adds at
// interval boundaries, so attaching Metrics preserves the interval loop's
// zero-allocation and near-zero-overhead properties. A nil *Metrics is a
// valid no-op sink.
type Metrics struct {
	runs      atomic.Uint64
	intervals atomic.Uint64
	cycles    atomic.Uint64
	ffCycles  atomic.Uint64
}

// NewMetrics returns a Metrics registered on r under the gdpsim_sim_* family
// names.
func NewMetrics(r *telemetry.Registry) *Metrics {
	m := &Metrics{}
	r.CounterFunc("gdpsim_sim_runs_total",
		"Completed shared-mode simulation runs.", m.runs.Load)
	r.CounterFunc("gdpsim_sim_intervals_total",
		"Recorded accounting intervals across all runs.", m.intervals.Load)
	r.CounterFunc("gdpsim_sim_cycles_total",
		"Simulated cycles across all runs (including fast-forwarded spans).", m.cycles.Load)
	r.CounterFunc("gdpsim_sim_fastforwarded_cycles_total",
		"Cycles the step loop did not visit: no component had an event, so none was ticked.", m.ffCycles.Load)
	return m
}

// flushMetrics publishes the cycles simulated since the last flush plus any
// pending interval/fast-forward counts. Drivers call it only at interval
// boundaries and at the end of the run, never per cycle.
func (m *machine) flushMetrics(upTo uint64, intervals uint64) {
	sink := m.opts.Metrics
	if sink == nil {
		return
	}
	sink.intervals.Add(intervals)
	if upTo > m.flushedCycle {
		sink.cycles.Add(upTo - m.flushedCycle)
		m.flushedCycle = upTo
	}
	if m.ffPending > 0 {
		sink.ffCycles.Add(m.ffPending)
		m.ffPending = 0
	}
}
