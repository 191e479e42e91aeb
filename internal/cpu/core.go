// Package cpu implements the trace-driven out-of-order core model. The model
// is reduced relative to a full microarchitectural simulator but reproduces
// the structures and behaviours the GDP paper's accounting techniques observe:
// a reorder buffer with in-order commit, a bounded issue queue and load/store
// queue, functional-unit contention, non-blocking L1/L2 private caches with
// MSHR merging, a store buffer, branch-redirect bubbles, and a precise
// per-cycle classification of commit stalls into memory-independent, private
// -memory, shared-memory and other stalls (Equation 1 of the paper).
package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/trace"
)

// MemorySystem is the interface the core uses to issue requests that miss in
// its private hierarchy (SMS requests). memsys.System implements it.
type MemorySystem interface {
	Submit(core int, addr uint64, isWrite bool, now uint64) *mem.Request
}

const unknownCycle = math.MaxUint64

// robEntry is one in-flight instruction.
type robEntry struct {
	inst      trace.Instruction
	index     uint64 // global instruction number
	complete  uint64 // cycle the result is available; unknownCycle if pending
	issued    bool   // execution (or memory access) has started
	isSMS     bool   // load serviced by the shared memory system
	isL1Miss  bool
	req       *mem.Request
	stallSeen bool // commit has already reported a stall on this entry

	// Wake-up scheduling state of an un-issued entry. It is derived from the
	// dependency distances and the producers' completion cycles (linkProducers
	// at dispatch, setComplete afterwards).
	waiting  uint8      // producers whose completion cycle is still unknown
	readyAt  uint64     // latest known completion cycle among the producers
	wakeHead wakeRef    // consumers to wake once complete becomes known
	wakeNext [2]wakeRef // per-operand link on that operand's producer's list
}

// wakeRef names one operand of one ROB slot on a producer's wake list, encoded
// as (slot<<1 | operand) + 1 so the zero value is the empty list. The lists
// are threaded through the ROB entries themselves: waking allocates nothing.
type wakeRef int32

// loadWaiters tracks ROB entries waiting on one outstanding cache line.
type loadWaiters struct {
	line    uint64
	primary *robEntry
	merged  []*robEntry
	req     *mem.Request
	// issueCount is Stats.CommitCycles at the cycle the request was issued;
	// per-request overlap (GDP-O) is the counter's increase over the request's
	// lifetime. Keeping it on the waiter (rather than in a map keyed by the
	// request ID) means the core never reads a request ID.
	issueCount uint64
}

// Core is one simulated processor core.
type Core struct {
	id           int
	cfg          config.CoreConfig
	l1Lat, l2Lat int
	l1MSHRs      int

	src    *trace.Generator
	l1d    *cache.Cache
	l2     *cache.Cache
	shared MemorySystem
	probes []Probe
	// stallProbes are the probes that implement StallProbe, in attach order.
	stallProbes []StallProbe
	// state is the snapshot handed to the stall probes, rebuilt in place for
	// every OnCycles call.
	state CycleState

	// Reorder buffer as a ring buffer.
	rob      []robEntry
	robHead  int
	robCount int

	// Issue queue: the dispatched entries whose execution has not started are
	// the ROB entries with issued == false, unissued of them. resolved holds
	// one bit per ROB slot, set for the un-issued entries whose producers all
	// have a known completion cycle (waiting == 0): the only ones execute and
	// computeNextEvent need to look at. Ring order from robHead is age order.
	unissued int
	resolved []uint64

	instIndex uint64 // next instruction number to dispatch

	// Outstanding L1 misses, one per line address; at most l1MSHRs of them,
	// in no particular order (findPending scans, CompleteRequest swap-removes).
	pending []*loadWaiters

	// Store buffer occupancy: completion cycles of draining stores.
	storeBuffer []uint64

	// Branch redirect state.
	pendingRedirect *robEntry
	fetchStallUntil uint64

	// Commit-stall bookkeeping for probe events.
	stalledOn *robEntry

	// memOps tracks the number of loads and stores currently in the ROB
	// (load/store queue occupancy).
	memOps int

	// staged holds an instruction fetched from the trace that could not be
	// dispatched this cycle (e.g. the LSQ was full); it is dispatched first
	// next cycle so no instruction is dropped.
	staged    trace.Instruction
	hasStaged bool

	// waiterPool recycles loadWaiters entries so the L1-miss path is
	// allocation-free in steady state.
	waiterPool []*loadWaiters

	// Event fast-forwarding state: active reports whether the last Tick (or a
	// CompleteRequest since it) changed any architectural state.
	active bool

	// Functional-unit capacity and usage in the current cycle, per pool.
	fuCap, fuUsed [numFUPools]int

	stats Stats
}

// New creates a core. src provides the instruction stream, sharedMem
// receives requests that miss in the private L1/L2 hierarchy.
func New(id int, cfg *config.CMPConfig, src *trace.Generator, sharedMem MemorySystem) (*Core, error) {
	if src == nil {
		return nil, fmt.Errorf("cpu: core %d needs an instruction source", id)
	}
	if sharedMem == nil {
		return nil, fmt.Errorf("cpu: core %d needs a shared memory system", id)
	}
	l1d, err := cache.New(fmt.Sprintf("core%d-l1d", id), cfg.L1D.SizeBytes, cfg.L1D.Ways, cfg.L1D.LineBytes)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(fmt.Sprintf("core%d-l2", id), cfg.L2.SizeBytes, cfg.L2.Ways, cfg.L2.LineBytes)
	if err != nil {
		return nil, err
	}
	c := &Core{
		id:       id,
		cfg:      cfg.Core,
		l1Lat:    cfg.L1D.LatencyCyc,
		l2Lat:    cfg.L2.LatencyCyc,
		l1MSHRs:  cfg.L1D.MSHRs,
		src:      src,
		l1d:      l1d,
		l2:       l2,
		shared:   sharedMem,
		rob:      make([]robEntry, cfg.Core.ROBEntries),
		resolved: make([]uint64, (cfg.Core.ROBEntries+63)/64),
		pending:  make([]*loadWaiters, 0, cfg.L1D.MSHRs),
		fuCap: [numFUPools]int{
			fuNone:   math.MaxInt,
			fuIntALU: cfg.Core.IntALUs,
			fuIntMul: cfg.Core.IntMulDiv,
			fuFPALU:  cfg.Core.FPALUs,
			fuFPMul:  cfg.Core.FPMulDiv,
			fuMem:    2,
		},
	}
	c.Reset()
	return c, nil
}

// Reset returns the core to the state New builds: empty pipeline and store
// buffer, cold private caches, no probes attached and zeroed statistics. The
// instruction source and the shared memory system stay attached (the caller
// resets those), and the outstanding-miss trackers join the free list.
func (c *Core) Reset() {
	c.l1d.Reset()
	c.l2.Reset()
	clear(c.probes)
	clear(c.stallProbes)
	c.probes, c.stallProbes = c.probes[:0], c.stallProbes[:0]
	c.state = CycleState{}
	clear(c.rob)
	c.robHead, c.robCount = 0, 0
	c.unissued = 0
	clear(c.resolved)
	c.instIndex = 0
	for _, w := range c.pending {
		c.putWaiter(w)
	}
	clear(c.pending)
	c.pending = c.pending[:0]
	c.storeBuffer = c.storeBuffer[:0]
	c.pendingRedirect, c.fetchStallUntil, c.stalledOn = nil, 0, nil
	c.memOps = 0
	c.staged, c.hasStaged = trace.Instruction{}, false
	c.active = false
	c.fuUsed = [numFUPools]int{}
	c.stats = Stats{}
}

// Stats returns a copy of the core's cumulative statistics.
func (c *Core) Stats() Stats { return c.stats }

// Instructions returns the number of instructions committed so far.
func (c *Core) Instructions() uint64 { return c.stats.Instructions }

// AttachProbe registers an accounting probe. A StallProbe also receives the
// core's non-committing cycles.
func (c *Core) AttachProbe(p Probe) {
	c.probes = append(c.probes, p)
	if sp, ok := p.(StallProbe); ok {
		c.stallProbes = append(c.stallProbes, sp)
	}
}

// lineAddr masks an address to its cache-line address.
func lineAddr(addr uint64) uint64 { return addr &^ 63 }

// robSlot maps queue position i (0 = oldest, at most len(c.rob)) to its slot
// in the ring.
func (c *Core) robSlot(i int) int {
	i += c.robHead
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	return i
}

// robAt returns the ROB entry at queue position i (0 = oldest).
func (c *Core) robAt(i int) *robEntry { return &c.rob[c.robSlot(i)] }

// entryFor returns the ROB entry holding instruction index idx, or nil if the
// instruction has already committed (and is therefore complete).
func (c *Core) entryFor(idx uint64) *robEntry {
	if c.robCount == 0 {
		return nil
	}
	oldest := c.rob[c.robHead].index
	if idx < oldest {
		return nil
	}
	offset := int(idx - oldest)
	if offset >= c.robCount {
		return nil
	}
	return c.robAt(offset)
}

// linkProducers initialises the wake-up state of the freshly dispatched
// un-issued entry e in ROB slot `slot`: each register producer still
// in the ROB either contributes its known completion cycle to readyAt or, if
// that cycle is still unknown, gets e linked onto its wake list. A producer
// that has already committed is complete and contributes nothing.
func (c *Core) linkProducers(e *robEntry, slot int) {
	for op, dist := range [2]int32{e.inst.Dep1, e.inst.Dep2} {
		if dist <= 0 || uint64(dist) > e.index {
			continue
		}
		p := c.entryFor(e.index - uint64(dist))
		if p == nil {
			continue
		}
		if p.complete != unknownCycle {
			e.readyAt = max(e.readyAt, p.complete)
			continue
		}
		e.waiting++
		e.wakeNext[op] = p.wakeHead
		p.wakeHead = wakeRef(slot<<1|op) + 1
	}
	if e.waiting == 0 {
		c.resolved[slot>>6] |= 1 << (slot & 63)
	}
}

// setComplete records the cycle at which p's result is available and wakes
// the consumers linked onto p. Every write that turns complete from
// unknownCycle into a cycle goes through here.
func (c *Core) setComplete(p *robEntry, cycle uint64) {
	p.complete = cycle
	for ref := p.wakeHead; ref != 0; {
		slot, op := int(ref-1)>>1, (ref-1)&1
		e := &c.rob[slot]
		e.readyAt = max(e.readyAt, cycle)
		if e.waiting--; e.waiting == 0 {
			c.resolved[slot>>6] |= 1 << (slot & 63)
		}
		ref, e.wakeNext[op] = e.wakeNext[op], 0
	}
	p.wakeHead = 0
}

// nextResolved returns the lowest ROB slot at or above slot whose resolved
// bit is set, or len(c.rob) if there is none. The register dependencies of
// the entry there are satisfied from cycle readyAt on; an un-issued entry
// without the bit waits for a producer whose completion is not known yet.
func (c *Core) nextResolved(slot int) int {
	if slot >= len(c.rob) {
		return len(c.rob)
	}
	wi := slot >> 6
	w := c.resolved[wi] >> (slot & 63) << (slot & 63)
	for w == 0 {
		if wi++; wi == len(c.resolved) {
			return len(c.rob)
		}
		w = c.resolved[wi]
	}
	return wi<<6 + bits.TrailingZeros64(w)
}

// findPending returns the outstanding-miss tracker of a line address, or -1.
func (c *Core) findPending(line uint64) int {
	for i, w := range c.pending {
		if w.line == line {
			return i
		}
	}
	return -1
}

// getWaiter returns a recycled (or fresh) loadWaiters entry.
func (c *Core) getWaiter() *loadWaiters {
	if n := len(c.waiterPool); n > 0 {
		w := c.waiterPool[n-1]
		c.waiterPool[n-1] = nil
		c.waiterPool = c.waiterPool[:n-1]
		return w
	}
	return &loadWaiters{}
}

// putWaiter recycles a loadWaiters entry once its request completed.
func (c *Core) putWaiter(w *loadWaiters) {
	w.line = 0
	w.primary = nil
	w.req = nil
	w.issueCount = 0
	for i := range w.merged {
		w.merged[i] = nil
	}
	w.merged = w.merged[:0]
	c.waiterPool = append(c.waiterPool, w)
}

// CompleteRequest is called by the simulation driver when a shared-memory
// request issued by this core finishes. It wakes the waiting loads.
func (c *Core) CompleteRequest(req *mem.Request, now uint64) {
	c.active = true
	if req.IsWrite {
		return // store-buffer writes are fire-and-forget
	}
	i := c.findPending(lineAddr(req.Addr))
	if i < 0 {
		return
	}
	w := c.pending[i]
	last := len(c.pending) - 1
	c.pending[i] = c.pending[last]
	c.pending[last] = nil
	c.pending = c.pending[:last]

	latency := req.TotalLatency()
	interference := req.TotalInterference()

	c.setComplete(w.primary, now)
	w.primary.isSMS = true
	for _, m := range w.merged {
		c.setComplete(m, now+1)
		m.isSMS = true
	}

	c.stats.SMSLoads++
	c.stats.SMSLatencySum += latency
	c.stats.SMSInterferenceSum += interference
	if !req.LLCHit {
		c.stats.LLCMisses++
		pre := req.LLCArrival - req.IssueCycle + uint64(c.l2Lat)
		c.stats.PreLLCLatSum += pre
		if latency > pre {
			c.stats.PostLLCLatSum += latency - pre
		}
	} else {
		c.stats.PreLLCLatSum += latency
	}
	// Overlap (GDP-O): commit cycles observed while the request was in flight.
	c.stats.SMSOverlapSum += c.stats.CommitCycles - w.issueCount

	for _, p := range c.probes {
		p.OnLoadCompleted(req.Addr, true, now, latency, interference, c.stats.CommitCycles)
	}
	c.putWaiter(w)
}

// Tick advances the core by one cycle.
func (c *Core) Tick(now uint64) {
	c.stats.Cycles++
	c.fuUsed = [numFUPools]int{}
	c.active = false

	committing, stall := c.commit(now)
	c.execute(now)
	c.dispatch(now)
	c.drainStoreBuffer(now)

	if committing {
		c.stats.CommitCycles++
	} else {
		c.countStall(stall, 1)
		c.reportStall(now, 1)
	}
}

// countStall adds n cycles to a stall kind's counter.
func (c *Core) countStall(stall StallKind, n uint64) {
	switch stall {
	case StallInd:
		c.stats.StallInd += n
	case StallPMS:
		c.stats.StallPMS += n
	case StallSMS:
		c.stats.StallSMS += n
	case StallOther:
		c.stats.StallOther += n
	}
}

// reportStall hands the stall probes the snapshot of n non-committing cycles
// from now on, built in place in c.state.
func (c *Core) reportStall(now, n uint64) {
	if len(c.stallProbes) == 0 {
		return
	}
	s := &c.state
	s.ROBFull = c.robCount == len(c.rob)
	s.HeadIsLoad, s.HeadReq = false, nil
	if c.robCount > 0 {
		head := c.robAt(0)
		if head.inst.Kind == trace.Load && (head.complete == unknownCycle || head.complete > now) {
			s.HeadIsLoad = true
			s.HeadReq = head.req
		}
	}
	s.PendingSMSLoads = len(c.pending)
	s.PendingInterferenceMisses = 0
	for _, w := range c.pending {
		if w.req != nil && w.req.InterferenceMiss {
			s.PendingInterferenceMisses++
		}
	}
	for _, p := range c.stallProbes {
		p.OnCycles(s, n)
	}
}

// commit retires completed instructions in order, classifying any stall.
func (c *Core) commit(now uint64) (bool, StallKind) {
	committed := 0
	var stall StallKind = StallInd

	for committed < c.cfg.CommitWidth && c.robCount > 0 {
		head := c.robAt(0)
		if head.complete == unknownCycle || head.complete > now {
			stall = c.classifyStall(head, now)
			break
		}
		if head.inst.Kind == trace.Store {
			if len(c.storeBuffer) >= c.cfg.StoreBufferSize {
				stall = StallOther
				break
			}
			c.retireStore(head, now)
		}
		if head.inst.Kind.IsMem() {
			c.memOps--
		}
		c.robHead = c.robSlot(1)
		c.robCount--
		c.stats.Instructions++
		committed++
	}

	committing := committed > 0
	if committing {
		c.active = true
		if c.stalledOn != nil {
			// Commit resumed after a load stall: Algorithm 3 trigger.
			for _, p := range c.probes {
				p.OnCommitResume(c.stalledOn.inst.Addr, c.stalledOn.isSMS, now)
			}
			c.stalledOn = nil
		}
		return true, StallNone
	}

	if c.robCount == 0 {
		return false, StallInd
	}
	head := c.robAt(0)
	if head.inst.Kind == trace.Load && !head.stallSeen && head.issued && head.isL1Miss {
		head.stallSeen = true
		c.stalledOn = head
		for _, p := range c.probes {
			p.OnCommitStall(head.inst.Addr, head.req != nil, now)
		}
	}
	return false, stall
}

// classifyStall maps an incomplete head-of-ROB instruction to a stall kind.
func (c *Core) classifyStall(head *robEntry, now uint64) StallKind {
	switch head.inst.Kind {
	case trace.Load:
		if !head.issued {
			return StallInd // waiting for its address operands
		}
		if head.req != nil {
			return StallSMS
		}
		return StallPMS // L2 access or L1 hit latency not yet elapsed
	case trace.Store:
		return StallOther
	default:
		return StallInd
	}
}

// retireStore moves a committing store into the store buffer and starts its
// (fire-and-forget) memory access.
func (c *Core) retireStore(e *robEntry, now uint64) {
	addr := e.inst.Addr
	var drainAt uint64
	if c.l1d.AccessAndFill(c.id, addr) {
		drainAt = now + uint64(c.l1Lat)
	} else if c.l2.AccessAndFill(c.id, addr) {
		drainAt = now + uint64(c.l1Lat+c.l2Lat)
	} else {
		// Write misses the private hierarchy: send it to the shared memory
		// system for bandwidth accounting, but free the buffer entry after the
		// private-hierarchy latency (write-through, no completion wait).
		c.shared.Submit(c.id, addr, true, now)
		drainAt = now + uint64(c.l1Lat+c.l2Lat)
	}
	c.storeBuffer = append(c.storeBuffer, drainAt)
}

// drainStoreBuffer frees store-buffer entries whose writes have drained.
func (c *Core) drainStoreBuffer(now uint64) {
	kept := c.storeBuffer[:0]
	for _, t := range c.storeBuffer {
		if t > now {
			kept = append(kept, t)
		}
	}
	if len(kept) != len(c.storeBuffer) {
		c.active = true
	}
	c.storeBuffer = kept
}

// execute starts execution of up to FetchWidth un-issued entries whose
// dependencies are met, oldest first: ring order from the head, i.e. slots
// [robHead, len) then [0, robHead). It walks a copy of each resolved-mask
// word. An entry that an older one wakes during the scan is ready a cycle
// later at the earliest (every latency is at least one cycle), so it could
// not issue in this scan anyway.
func (c *Core) execute(now uint64) {
	issued, width := 0, c.cfg.FetchWidth
	from, to := c.robHead, len(c.rob)
	for range 2 {
		for wi := from >> 6; wi<<6 < to && issued < width; wi++ {
			w := c.resolved[wi]
			if wi == from>>6 {
				w = w >> (from & 63) << (from & 63)
			}
			for ; w != 0 && issued < width; w &= w - 1 {
				slot := wi<<6 + bits.TrailingZeros64(w)
				if slot >= to {
					break
				}
				e := &c.rob[slot]
				if e.readyAt > now || !c.fuAvailable(e.inst.Kind) {
					continue
				}
				if e.inst.Kind == trace.Load {
					if !c.issueLoad(e, now) {
						continue
					}
				} else {
					c.claimFU(e.inst.Kind)
					c.setComplete(e, now+uint64(trace.ExecLatency(e.inst.Kind)))
				}
				e.issued = true
				c.resolved[wi] &^= 1 << (slot & 63)
				c.unissued--
				issued++
				c.active = true
			}
		}
		from, to = 0, c.robHead
	}

	// Resolve branch redirects whose branch has executed.
	if c.pendingRedirect != nil && c.pendingRedirect.complete != unknownCycle && c.pendingRedirect.complete <= now {
		c.fetchStallUntil = c.pendingRedirect.complete + uint64(c.cfg.BranchMissPenalty)
		c.pendingRedirect = nil
		c.active = true
	}
}

// Functional-unit pools: each instruction kind draws from one. fuNone holds
// the kinds that need no unit and never runs out.
const (
	fuNone = iota
	fuIntALU
	fuIntMul
	fuFPALU
	fuFPMul
	fuMem // memory ports
	numFUPools
)

// fuPoolOf maps an instruction kind to its pool: a lookup, not a switch,
// whose branches the instruction mix makes unpredictable. It spans every
// Kind value, so indexing it needs no bounds check.
var fuPoolOf = [256]uint8{
	trace.IntOp: fuIntALU, trace.Branch: fuIntALU,
	trace.IntMul: fuIntMul,
	trace.FPOp:   fuFPALU,
	trace.FPMul:  fuFPMul,
	trace.Load:   fuMem, trace.Store: fuMem,
}

// fuAvailable reports whether a functional unit (or memory port) is free this
// cycle for the given instruction kind.
func (c *Core) fuAvailable(k trace.Kind) bool {
	pool := fuPoolOf[k]
	return c.fuUsed[pool] < c.fuCap[pool]
}

// claimFU consumes a functional-unit slot for this cycle.
func (c *Core) claimFU(k trace.Kind) { c.fuUsed[fuPoolOf[k]]++ }

// issueLoad performs the memory access of a load whose operands are ready.
// It returns false when the access cannot start this cycle (MSHRs exhausted).
func (c *Core) issueLoad(e *robEntry, now uint64) bool {
	addr := e.inst.Addr
	c.claimFU(trace.Load)
	c.stats.Loads++

	if c.l1d.AccessAndFill(c.id, addr) {
		c.setComplete(e, now+uint64(c.l1Lat))
		return true
	}

	// L1 miss.
	key := lineAddr(addr)
	if i := c.findPending(key); i >= 0 {
		// MSHR merge: this load completes when the outstanding request does.
		w := c.pending[i]
		w.merged = append(w.merged, e)
		e.isL1Miss = true
		e.req = w.req
		c.stats.L1Misses++
		return true
	}
	if len(c.pending) >= c.l1MSHRs {
		c.stats.Loads-- // retry next cycle; do not double-count
		c.fuUsed[fuMem]--
		return false
	}

	e.isL1Miss = true
	c.stats.L1Misses++
	for _, p := range c.probes {
		p.OnLoadIssued(addr, now, c.stats.CommitCycles)
	}

	if c.l2.AccessAndFill(c.id, addr) {
		// PMS load: serviced by the private L2.
		c.setComplete(e, now+uint64(c.l1Lat+c.l2Lat))
		c.stats.PMSLoads++
		for _, p := range c.probes {
			p.OnLoadCompleted(addr, false, e.complete, uint64(c.l1Lat+c.l2Lat), 0, c.stats.CommitCycles)
		}
		return true
	}

	// SMS load: goes to the shared memory system.
	req := c.shared.Submit(c.id, addr, false, now)
	e.req = req
	w := c.getWaiter()
	w.line = key
	w.primary = e
	w.req = req
	w.issueCount = c.stats.CommitCycles
	c.pending = append(c.pending, w)
	return true
}

// NextEvent returns a lower bound on the next cycle (strictly after now) at
// which the core's Tick can change architectural state, assuming no external
// request completion arrives in between (completions are the memory system's
// events and are accounted separately by the driver). A core that may act on
// the very next cycle returns now+1; a core with nothing to do until an
// external completion returns math.MaxUint64.
//
// The bound is exact in the following sense: for every cycle t in
// (now, NextEvent(now)), Tick(t) would only repeat the current stall — one
// cycle of the same stall counter and one identical probe snapshot — which
// FastForward reproduces in closed form. The driver may therefore skip the
// span without simulating it; it holds on to the bound until that cycle, so
// the core does not cache it.
func (c *Core) NextEvent(now uint64) uint64 {
	if c.active {
		return now + 1
	}
	return c.computeNextEvent(now)
}

func (c *Core) computeNextEvent(now uint64) uint64 {
	next := uint64(math.MaxUint64)

	// Commit: a head with a known completion cycle commits then (or, for a
	// store blocked on a full store buffer, after a drain — drains are added
	// below). An unknown completion resolves only via CompleteRequest.
	if c.robCount > 0 {
		head := c.robAt(0)
		if head.complete != unknownCycle {
			if head.complete > now {
				if head.complete < next {
					next = head.complete
				}
			} else if head.inst.Kind != trace.Store {
				// A complete non-store head would have committed this cycle;
				// the state is not provably idle, so do not skip.
				return now + 1
			}
		}
	}

	// Issue queue: entries whose dependencies resolve at a known cycle start
	// executing then. The unresolved ones wait, directly or through other
	// unresolved entries, either on an in-flight SMS load — an external event
	// — or on a resolved entry, whose own issue this scan accounts for. An
	// entry that is ready *now* but did not issue must be an MSHR-blocked
	// L1-missing load (the only non-issuing path in execute); anything else
	// means the idle proof fails and we do not skip.
	for slot := c.nextResolved(0); slot < len(c.rob); slot = c.nextResolved(slot + 1) {
		e := &c.rob[slot]
		if e.readyAt <= now {
			if !c.loadProvablyBlocked(e) {
				return now + 1
			}
			continue // unblocks on a request completion: external
		}
		if e.readyAt < next {
			next = e.readyAt
		}
	}

	// Branch redirect resolution (the branch entry itself is covered by the
	// issue-queue scan while unissued; once issued its completion is known).
	if c.pendingRedirect != nil && c.pendingRedirect.complete != unknownCycle {
		if t := c.pendingRedirect.complete; t <= now {
			return now + 1
		} else if t < next {
			next = t
		}
	}

	// Store-buffer drains change the buffer occupancy commit observes.
	for _, t := range c.storeBuffer {
		if t <= now {
			return now + 1
		}
		if t < next {
			next = t
		}
	}

	// Dispatch: when it is not structurally blocked, the front end fetches
	// every cycle (the generator is infinite), so the core is never idle.
	if c.pendingRedirect == nil {
		robFull := c.robCount >= len(c.rob)
		iqFull := c.unissued >= c.cfg.IssueQueueEntries
		lsqBlocked := c.hasStaged && c.memOps >= c.cfg.LSQEntries
		if !robFull && !iqFull && !lsqBlocked {
			if c.fetchStallUntil > now+1 {
				if c.fetchStallUntil < next {
					next = c.fetchStallUntil
				}
			} else {
				return now + 1
			}
		}
		// Structural blocks clear only when commit retires instructions,
		// which is itself an event computed above.
	}

	if next <= now {
		return now + 1
	}
	return next
}

// loadProvablyBlocked reports whether a dependency-ready entry is a load that
// execute() provably cannot start this cycle or any later cycle until a
// shared-memory request completes: it misses the L1, does not merge with an
// outstanding line, and all MSHRs are occupied. (This mirrors issueLoad's
// failure path without its side effects.)
func (c *Core) loadProvablyBlocked(e *robEntry) bool {
	if e.inst.Kind != trace.Load {
		return false
	}
	if len(c.pending) < c.l1MSHRs {
		return false
	}
	addr := e.inst.Addr
	if c.l1d.Lookup(addr) {
		return false // would hit the L1 and issue
	}
	return c.findPending(lineAddr(addr)) < 0 // else it would MSHR-merge and issue
}

// FastForward accounts for the idle span [from, to): the core repeats the
// same non-committing stall for every cycle of the span, so the cycle and
// stall counters advance by the span length and stall probes observe the span
// in one OnCycles call. The driver only calls this after NextEvent proved the
// span idle.
func (c *Core) FastForward(from, to uint64) {
	if to <= from {
		return
	}
	n := to - from
	c.stats.Cycles += n

	stall := StallInd
	if c.robCount > 0 {
		head := c.robAt(0)
		if head.complete == unknownCycle || head.complete > from {
			stall = c.classifyStall(head, from)
		} else {
			// Complete store head blocked on a full store buffer.
			stall = StallOther
		}
	}
	c.countStall(stall, n)
	c.reportStall(from, n)
}

// dispatch brings new instructions from the trace into the ROB and issue
// queue, respecting the fetch width, ROB/issue-queue/LSQ capacity and branch
// redirect bubbles.
func (c *Core) dispatch(now uint64) {
	if c.pendingRedirect != nil || now < c.fetchStallUntil {
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.robCount >= len(c.rob) || c.unissued >= c.cfg.IssueQueueEntries {
			return
		}
		var inst trace.Instruction
		if c.hasStaged {
			inst = c.staged
			c.hasStaged = false
		} else {
			inst = c.src.Next()
			c.active = true // the trace source advanced
		}
		if inst.Kind.IsMem() && c.memOps >= c.cfg.LSQEntries {
			// No LSQ entry: stage the instruction and retry next cycle.
			c.staged = inst
			c.hasStaged = true
			return
		}
		c.active = true
		// Reset every field of the slot in place (a composite literal is
		// built aside and copied in); a new robEntry field is reset here too.
		pos := c.robSlot(c.robCount)
		e := &c.rob[pos]
		e.inst = inst
		e.index = c.instIndex
		e.complete = unknownCycle
		e.issued, e.isSMS, e.isL1Miss, e.stallSeen = false, false, false, false
		e.req = nil
		e.waiting, e.readyAt, e.wakeHead = 0, 0, 0
		e.wakeNext = [2]wakeRef{}
		c.linkProducers(e, pos)
		c.unissued++
		c.instIndex++
		c.robCount++
		if inst.Kind.IsMem() {
			c.memOps++
		}
		if inst.Kind == trace.Branch && inst.Mispredicted {
			// Stop dispatching past an unresolved mispredicted branch; the
			// front end refills BranchMissPenalty cycles after it executes.
			c.pendingRedirect = e
			return
		}
	}
}
