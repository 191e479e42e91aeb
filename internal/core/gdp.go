// Package core implements the paper's primary contribution: Graph-based
// Dynamic Performance (GDP) accounting and its GDP-O variant.
//
// GDP observes the dataflow relationship between shared-memory-system (SMS)
// loads and the periods in which the processor commits instructions. It
// maintains two hardware-inspired structures:
//
//   - the Pending Request Buffer (PRB), a small circular buffer of in-flight
//     L1-miss load requests, and
//   - the Pending Commit Buffer (PCB), a register describing the current
//     commit period and its child requests.
//
// Algorithms 1-3 of the paper build a dependency graph between loads and
// commit periods and compute its Critical Path Length (CPL) online using an
// approximation of Kahn's topological-order algorithm. The private-mode
// (interference-free) SMS stall cycles are then estimated as CPL multiplied by
// the estimated private-mode memory latency; GDP-O additionally subtracts the
// average number of cycles the core commits instructions while an SMS load is
// pending (the overlap).
//
// The hardware searches its PRB in parallel; the simulator keeps Figure 2's
// fields with bookkeeping of its own, so a cycle costs nothing and an event
// O(live entries): a base per entry against the core's running
// committing-cycle count, which the load events carry, for the per-entry
// overlap counters (GDP-O), a child bit per entry for the PCB's bit vector,
// and a list of the valid entries. StorageBits still counts the paper's
// hardware (3117 bits for GDP and 3597 for GDP-O at 32 entries).
package core

import (
	"fmt"
	"math"
	"slices"
)

// prbEntry is one Pending Request Buffer entry (Figure 2 of the paper). The
// private reference allocates 4096 entries per run, so it stays at 40 bytes.
type prbEntry struct {
	addr        uint64
	depth       uint64
	completedAt uint64
	// base is the core's committing-cycle count at insertion. The first SMS
	// completion replaces it with the entry's overlap, which then stays frozen.
	base      uint64
	completed bool
	valid     bool
	child     bool // of the pending commit period (the PCB's child bit)
}

// pcb is the Pending Commit Buffer (Figure 2); its children set prbEntry.child.
type pcb struct {
	depth     uint64
	startedAt uint64
	stalledAt uint64
	stalled   bool
}

// Options configure a GDP instance.
type Options struct {
	// PRBEntries is the Pending Request Buffer size. The paper's default is 32.
	PRBEntries int
	// TrackOverlap enables the GDP-O overlap machinery (per-entry overlap
	// counters, kept as a base per entry against the core's committing-cycle
	// count, and the global overlap accumulator).
	TrackOverlap bool
}

// GDP is the dataflow-accounting unit of one core. It implements cpu.Probe so
// it can be attached directly to a simulated core; it observes events only,
// never cycles. The zero value is not usable; construct instances with New.
type GDP struct {
	opts Options

	prb    []prbEntry
	newest int
	oldest int
	pcb    pcb

	// live lists the slots of the valid PRB entries, in no particular order.
	live []int32

	// CPL baseline at the last Retrieve call.
	lastRetrievedDepth uint64

	// GDP-O overlap accumulators.
	overlapSum      uint64
	overlapSMSLoads uint64

	// Diagnostics.
	insertions uint64
	evictions  uint64
	cplUpdates uint64
}

// New creates a GDP unit.
func New(opts Options) (*GDP, error) {
	if opts.PRBEntries < 1 || opts.PRBEntries > math.MaxInt32 {
		return nil, fmt.Errorf("core: PRB needs 1 to %d entries, got %d", math.MaxInt32, opts.PRBEntries)
	}
	g := &GDP{
		opts: opts,
		prb:  make([]prbEntry, opts.PRBEntries),
		live: make([]int32, 0, opts.PRBEntries),
	}
	g.Reset()
	return g, nil
}

// Reset empties the PRB and the PCB and zeroes every counter, as New builds
// the unit.
func (g *GDP) Reset() {
	clear(g.prb)
	g.newest, g.oldest = 0, 0
	g.pcb = pcb{}
	g.live = g.live[:0]
	g.lastRetrievedDepth = 0
	g.overlapSum, g.overlapSMSLoads = 0, 0
	g.insertions, g.evictions, g.cplUpdates = 0, 0, 0
}

// findByAddr returns the position in g.live of the valid PRB entry for addr,
// or -1. Of several valid entries for addr, the lowest slot wins.
func (g *GDP) findByAddr(addr uint64) int {
	pos, slot := -1, int32(math.MaxInt32)
	for i, s := range g.live {
		if s < slot && g.prb[s].addr == addr {
			pos, slot = i, s
		}
	}
	return pos
}

// drop invalidates the entry at g.live[pos] and swap-removes it from the list.
func (g *GDP) drop(pos int) {
	g.prb[g.live[pos]].valid = false
	last := len(g.live) - 1
	g.live[pos] = g.live[last]
	g.live = g.live[:last]
}

// OnLoadIssued implements Algorithm 1: insert an L1-miss request into the PRB
// and record it as a child of the pending commit period. commitCycles is the
// core's running committing-cycle count, the base of the entry's overlap.
func (g *GDP) OnLoadIssued(addr uint64, cycle uint64, commitCycles uint64) {
	if g.prb[g.newest].valid {
		g.newest = (g.newest + 1) % len(g.prb)
		if g.newest == g.oldest {
			// Buffer full: invalidate the oldest pending request. If the oldest
			// issued load has not caused a stall it is unlikely to increase the
			// CPL (Section IV-A).
			if g.prb[g.newest].valid {
				g.drop(slices.Index(g.live, int32(g.newest)))
				g.evictions++
			}
			g.oldest = (g.oldest + 1) % len(g.prb)
		}
	}
	g.prb[g.newest] = prbEntry{
		addr:  addr,
		depth: g.pcb.depth,
		base:  commitCycles,
		valid: true,
		child: true,
	}
	g.live = append(g.live, int32(g.newest))
	g.insertions++
}

// OnLoadCompleted implements Algorithm 2: SMS loads are marked completed,
// PMS loads are dropped from the PRB (and from the PCB child list). The first
// SMS completion freezes the entry's overlap: the cycles the core committed
// since the entry was inserted, by the running count commitCycles.
func (g *GDP) OnLoadCompleted(addr uint64, sms bool, cycle uint64, latency, interference uint64, commitCycles uint64) {
	pos := g.findByAddr(addr)
	if pos < 0 {
		return // evicted earlier due to limited buffer space
	}
	if !sms {
		g.drop(pos)
		return
	}
	e := &g.prb[g.live[pos]]
	if !e.completed {
		e.base = commitCycles - e.base // freeze the overlap
		e.completed = true
	}
	e.completedAt = cycle
	if g.opts.TrackOverlap {
		g.overlapSum += e.base
		g.overlapSMSLoads++
	}
}

// OnCommitStall records the cycle at which the current commit period ended
// because a load reached the head of the ROB before completing.
func (g *GDP) OnCommitStall(addr uint64, sms bool, cycle uint64) {
	if !g.pcb.stalled {
		g.pcb.stalledAt = cycle
		g.pcb.stalled = true
	}
}

// OnCommitResume implements Algorithm 3, run when the processor resumes
// execution after a stall. The walks run backwards so a swap-removal only
// moves an entry that was already visited.
func (g *GDP) OnCommitResume(addr uint64, wasSMS bool, cycle uint64) {
	stallStart := cycle
	if g.pcb.stalled {
		stallStart = g.pcb.stalledAt
	}
	g.pcb.stalled = false
	pos := g.findByAddr(addr)
	if pos < 0 {
		// PMS stall or evicted entry: does not affect the CPL.
		return
	}
	stalling := &g.prb[g.live[pos]]

	// Step 1: complete the commit period l that ended at the stall. Requests
	// that completed before the stall are its parents; its depth is the
	// maximum of their depths.
	for i := len(g.live) - 1; i >= 0; i-- {
		if e := &g.prb[g.live[i]]; e.completed && e.completedAt < stallStart {
			g.pcb.depth = max(g.pcb.depth, e.depth)
			g.drop(i)
		}
	}
	// All children of the completed commit period sit one level deeper: the
	// stalling request's depth is set here, the others' in step 2's walk.
	childDepth := g.pcb.depth + 1
	if stalling.valid && stalling.child {
		stalling.depth = childDepth
	}
	g.cplUpdates++

	// Step 2: initialize the new commit period with the depth of the request
	// that caused the stall, then absorb any other completed requests. The
	// walk deepens each child before reading its depth, and leaves the new
	// commit period with an empty child list: requests issued during earlier
	// commit periods keep those periods as parents.
	newDepth := stalling.depth
	for i := len(g.live) - 1; i >= 0; i-- {
		e := &g.prb[g.live[i]]
		if e.child {
			e.depth = childDepth
			e.child = false
		}
		if e.completed {
			newDepth = max(newDepth, e.depth)
			g.drop(i)
		}
	}
	g.pcb.depth = newDepth
	g.pcb.startedAt = cycle
}

// CPL returns the critical path length accumulated since the last Retrieve.
func (g *GDP) CPL() uint64 {
	if g.pcb.depth < g.lastRetrievedDepth {
		return 0
	}
	return g.pcb.depth - g.lastRetrievedDepth
}

// AvgOverlap returns the average overlap cycles per completed SMS load since
// the last Retrieve (GDP-O only; zero for plain GDP).
func (g *GDP) AvgOverlap() float64 {
	if g.overlapSMSLoads == 0 {
		return 0
	}
	return float64(g.overlapSum) / float64(g.overlapSMSLoads)
}

// Retrieve returns the interval CPL and average overlap and resets both for
// the next measurement interval (the paper's "retrieved every 5M cycles").
func (g *GDP) Retrieve() (cpl uint64, avgOverlap float64) {
	cpl = g.CPL()
	avgOverlap = g.AvgOverlap()
	g.lastRetrievedDepth = g.pcb.depth
	g.overlapSum = 0
	g.overlapSMSLoads = 0
	return cpl, avgOverlap
}

// Totals returns the PCB's depth and the GDP-O overlap sum and completed-SMS
// load count accumulated since the last Retrieve. A unit that is never
// retrieved reports running totals, from which the CPL and average overlap of
// any window follow by difference: CPL is max(0, Δdepth), as in CPL, and the
// average overlap is Δsum / Δloads.
func (g *GDP) Totals() (depth, overlapSum, overlapLoads uint64) {
	return g.pcb.depth, g.overlapSum, g.overlapSMSLoads
}

// Diagnostics returns internal activity counters: insertions, evictions (valid
// requests dropped because the PRB was full; the ring pointers wrapping onto
// a free slot is not one) and commit-period completions.
func (g *GDP) Diagnostics() (insertions, evictions, cplUpdates uint64) {
	return g.insertions, g.evictions, g.cplUpdates
}

// Storage-overhead constants (Figure 2 field widths, in bits).
const (
	addrBits       = 48
	depthBits      = 15
	timestampBits  = 28
	overlapBits    = 14
	completedBits  = 1
	validBits      = 1
	pointerBits    = 5
	overlapCtrBits = 32
	pcbDepthBits   = depthBits
	pcbStartBits   = timestampBits
	pcbStallBits   = timestampBits
)

// StorageBits returns the storage overhead of the unit in bits, reproducing
// the arithmetic of Section IV-A (3117 bits for GDP and 3597 bits for GDP-O
// with 32 PRB entries).
func (g *GDP) StorageBits() int {
	n := len(g.prb)
	entry := addrBits + depthBits + timestampBits + completedBits + validBits
	if g.opts.TrackOverlap {
		entry += overlapBits
	}
	total := n*entry + // PRB
		pcbDepthBits + pcbStartBits + pcbStallBits + n + // PCB (children bit vector has n bits)
		timestampBits + // cycle timestamp counter
		2*pointerBits // newest/oldest valid pointers
	if g.opts.TrackOverlap {
		total += overlapCtrBits
	}
	return total
}

// Equation2LatencyCycles returns the number of cycles a sequential hardware
// implementation needs to evaluate Equation 2 (Section IV-C: 2 divisions, 2
// multiplies and 5 additions at 25, 3 and 1 cycles respectively).
func Equation2LatencyCycles() int {
	const (
		divisions  = 2
		multiplies = 2
		additions  = 5
		divCycles  = 25
		mulCycles  = 3
		addCycles  = 1
	)
	return divisions*divCycles + multiplies*mulCycles + additions*addCycles
}
