// Package dief implements the Dynamic Interference Estimation Framework the
// GDP paper uses to obtain private-mode memory latency estimates (Section
// IV-B). DIEF measures the shared-mode latency L of each core's SMS loads and
// estimates the latency I caused by inter-core interference using counters in
// the interconnect, the LLC (interference misses identified with set-sampled
// auxiliary tag directories) and the memory controller. The private-mode
// latency estimate is then λ = L − I.
package dief

import (
	"fmt"

	"repro/internal/mem"
)

// Estimator aggregates per-core latency and interference observations over a
// measurement interval.
type Estimator struct {
	cores int

	latencySum      []uint64
	interferenceSum []uint64
	ringSum         []uint64
	llcSum          []uint64
	memSum          []uint64
	count           []uint64
	// floor is the minimum believable private latency per core (the unloaded
	// LLC-hit latency); estimates never drop below it.
	floor []uint64
}

// New creates an estimator for the given number of cores.
func New(cores int) (*Estimator, error) {
	if cores < 1 {
		return nil, fmt.Errorf("dief: need at least one core")
	}
	return &Estimator{
		cores:           cores,
		latencySum:      make([]uint64, cores),
		interferenceSum: make([]uint64, cores),
		ringSum:         make([]uint64, cores),
		llcSum:          make([]uint64, cores),
		memSum:          make([]uint64, cores),
		count:           make([]uint64, cores),
		floor:           make([]uint64, cores),
	}, nil
}

// SetLatencyFloor sets the minimum private-latency estimate for a core
// (typically the unloaded ring + LLC hit latency).
func (e *Estimator) SetLatencyFloor(core int, floor uint64) {
	if core >= 0 && core < e.cores {
		e.floor[core] = floor
	}
}

// Observe records one completed SMS request.
func (e *Estimator) Observe(req *mem.Request) {
	c := req.Core
	if c < 0 || c >= e.cores {
		return
	}
	e.latencySum[c] += req.TotalLatency()
	e.interferenceSum[c] += req.TotalInterference()
	e.ringSum[c] += req.RingInterference
	e.llcSum[c] += req.LLCInterference
	e.memSum[c] += req.MemInterference
	e.count[c]++
}

// SharedLatency returns the measured average shared-mode latency L for core.
func (e *Estimator) SharedLatency(core int) float64 {
	if e.count[core] == 0 {
		return 0
	}
	return float64(e.latencySum[core]) / float64(e.count[core])
}

// Interference returns the estimated average per-request interference I.
func (e *Estimator) Interference(core int) float64 {
	if e.count[core] == 0 {
		return 0
	}
	return float64(e.interferenceSum[core]) / float64(e.count[core])
}

// InterferenceBreakdown returns the average interference split into the
// interconnect, LLC and memory-controller components.
func (e *Estimator) InterferenceBreakdown(core int) (ring, llc, memBus float64) {
	if e.count[core] == 0 {
		return 0, 0, 0
	}
	n := float64(e.count[core])
	return float64(e.ringSum[core]) / n, float64(e.llcSum[core]) / n, float64(e.memSum[core]) / n
}

// PrivateLatency returns DIEF's estimate of the interference-free SMS load
// latency λ = L − I, clamped at the configured floor.
func (e *Estimator) PrivateLatency(core int) float64 {
	l := e.SharedLatency(core)
	i := e.Interference(core)
	lambda := l - i
	if f := float64(e.floor[core]); lambda < f {
		lambda = f
	}
	if lambda < 0 {
		lambda = 0
	}
	return lambda
}

// ResetInterval clears the per-interval accumulators (latency floors persist).
func (e *Estimator) ResetInterval() {
	for c := 0; c < e.cores; c++ {
		e.latencySum[c] = 0
		e.interferenceSum[c] = 0
		e.ringSum[c] = 0
		e.llcSum[c] = 0
		e.memSum[c] = 0
		e.count[c] = 0
	}
}

// StorageBytes models DIEF's storage overhead: the dominant cost is the
// per-core auxiliary tag directory. fullMap assumes every LLC set is
// shadowed; sampled assumes only sampledSets are (Section IV-B reports the
// reduction from 929 KB / 1859 KB / 7178 KB to 5.0 KB / 9.9 KB / 23.8 KB for
// the 2-, 4- and 8-core configurations).
func StorageBytes(cores, llcSets, llcWays, sampledSets, tagBits int) (fullMap, sampled int) {
	perSetBits := llcWays * (tagBits + 1)
	counterBits := cores * 4 * 32 // interconnect, LLC, bus and request counters per core
	fullMap = (cores*llcSets*perSetBits + counterBits) / 8
	sampled = (cores*sampledSets*perSetBits + counterBits) / 8
	return fullMap, sampled
}
