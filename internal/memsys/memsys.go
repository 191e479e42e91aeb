// Package memsys composes the shared memory system of the simulated CMP:
// the ring interconnect, the banked shared last-level cache (LLC) with
// per-core auxiliary tag directories (ATDs), and the DRAM memory controller.
//
// Requests enter the system when a core's private hierarchy (L1/L2) misses —
// these are the paper's SMS-loads. The system is ticked once per CPU cycle; a
// request flows ingress queue -> request ring -> LLC bank -> (on a miss)
// memory controller -> response ring -> completion. Contention in each stage
// is emergent, and the per-request interference counters (ring queueing, LLC
// interference misses, memory queueing and row-buffer interference) record
// how much of each request's latency was caused by other cores, which is the
// raw information DIEF turns into private-mode latency estimates.
//
// The memory controller has its own clock: a Tick ticks it only once its
// NextEvent is reached, and the queue-interference charge of the cycles it sat
// out is applied in closed form (dram.Controller.FastForward) before its next
// Tick, before every Enqueue (through the enqueue cycle) and on Settle, at the
// driver's synchronisation points.
//
// The system is allocation-free in steady state: mem.Request objects are
// pooled and recycled two cycles after their completion was delivered (the
// delay covers accounting probes that read a completed request's counters
// one cycle after delivery; elapsed cycles, not executed Ticks), and every
// internal queue reuses its backing storage.
package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/ring"
)

// lookup is a request occupying an LLC bank.
type lookup struct {
	req     *mem.Request
	readyAt uint64
}

// reqQueue is a FIFO of requests that reuses its backing array: pops advance
// a head index, the storage is reset (keeping capacity) once drained, and a
// queue that never fully drains is compacted once the dead prefix dominates,
// so the backing array stays proportional to the live occupancy and
// steady-state operation never re-allocates.
type reqQueue struct {
	items []*mem.Request
	head  int
}

func (q *reqQueue) push(r *mem.Request) { q.items = append(q.items, r) }

func (q *reqQueue) len() int { return len(q.items) - q.head }

func (q *reqQueue) front() *mem.Request { return q.items[q.head] }

// active returns the live window of the queue (oldest first).
func (q *reqQueue) active() []*mem.Request { return q.items[q.head:] }

func (q *reqQueue) pop() *mem.Request {
	r := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head >= 32 && q.head*2 >= len(q.items):
		// The dead prefix is at least as large as the live window: slide the
		// live entries to the front so pushes reuse the freed slots instead
		// of growing the array forever.
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:n]
		q.head = 0
	}
	return r
}

// System is the shared memory system.
type System struct {
	cfg *config.CMPConfig

	ring *ring.Ring
	llc  *cache.Cache
	atds []*cache.ATD
	mc   *dram.Controller

	// Per-core ingress queues ahead of the request ring (bounded by the
	// private-cache MSHRs, so they never grow without bound).
	ingress []reqQueue

	// Per-bank occupancy and pending lookups.
	bankBusyUntil []uint64
	bankQueue     []reqQueue
	inLookup      []lookup

	// LLC misses waiting for space in the memory-controller queue.
	toMemory []*mem.Request

	// Responses waiting for space on the response ring.
	toResponse []*mem.Request

	// Completed requests per core, drained by the caller. The backing arrays
	// are reused across cycles.
	completed [][]*mem.Request

	// Request pool. Completed requests age through two retirement
	// generations, one per elapsed cycle (agedTo is the first cycle not aged
	// through yet), before re-entering the free list, so a recycled object is
	// never reused while a core-side observer may still dereference it (the
	// window is at most one cycle past completion delivery).
	pooling     bool
	pool        []*mem.Request
	retiredNow  []*mem.Request
	retiredPrev []*mem.Request
	agedTo      uint64

	// OnInterferenceMiss, when non-nil, is called with the issuing core and
	// the cycle just before a request is marked as an interference miss:
	// core-side probes read that flag off in-flight requests, so a driver that
	// defers a stalled core's bookkeeping settles it while the flag reads false.
	OnInterferenceMiss func(core int, now uint64)

	// The controller's clock: mcAt is the first cycle not yet charged, mcWake
	// its NextEvent after its last Tick or Enqueue, mcTicks its Ticks.
	mcAt, mcWake, mcTicks uint64
	mcEveryCycle          bool

	nextID uint64

	stats Stats
}

// Stats aggregates system-level counters.
type Stats struct {
	Submitted          uint64
	LLCHits            uint64
	LLCMisses          uint64
	InterferenceMisses uint64
	Completed          uint64
}

// New builds a shared memory system from a validated CMP configuration.
func New(cfg *config.CMPConfig) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	llc, err := cache.New("llc", cfg.LLC.SizeBytes, cfg.LLC.Ways, cfg.LLC.LineBytes)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:           cfg,
		ring:          ring.New(cfg),
		llc:           llc,
		mc:            dram.New(cfg.DRAM),
		ingress:       make([]reqQueue, cfg.Cores),
		bankBusyUntil: make([]uint64, cfg.LLC.Banks),
		bankQueue:     make([]reqQueue, cfg.LLC.Banks),
		completed:     make([][]*mem.Request, cfg.Cores),
		pooling:       true,
	}
	s.atds = make([]*cache.ATD, cfg.Cores)
	for core := 0; core < cfg.Cores; core++ {
		atd, err := cache.NewATD(llc.Sets(), cfg.LLC.Ways, cfg.ATDSampledSets, cfg.LLC.LineBytes)
		if err != nil {
			return nil, err
		}
		s.atds[core] = atd
	}
	return s, nil
}

// ATD returns core's auxiliary tag directory.
func (s *System) ATD(core int) *cache.ATD { return s.atds[core] }

// Controller returns the memory controller (for ASM's priority hook).
func (s *System) Controller() *dram.Controller { return s.mc }

// Ring returns the interconnect (for diagnostics).
func (s *System) Ring() *ring.Ring { return s.ring }

// Stats returns a copy of the accumulated counters.
func (s *System) Stats() Stats { return s.stats }

// Submitted returns the number of requests submitted so far.
func (s *System) Submitted() uint64 { return s.stats.Submitted }

// SetPartition installs an LLC way partition (nil disables partitioning).
func (s *System) SetPartition(alloc []int) error { return s.llc.SetPartition(alloc) }

// StartClock anchors the memory controller's clock at the driver's first
// cycle: nothing before it is charged. everyCycle makes every Tick tick the
// controller (the reference).
func (s *System) StartClock(now uint64, everyCycle bool) {
	s.mcAt, s.mcWake, s.mcEveryCycle = now, now, everyCycle
}

// Settle applies the memory controller's deferred queue-interference charge
// for the cycles below to and reports whether it had fallen behind.
func (s *System) Settle(to uint64) bool {
	if s.mcAt >= to {
		return false
	}
	s.mc.FastForward(s.mcAt, to)
	s.mcAt = to
	return true
}

// ControllerTicks returns the number of memory-controller Ticks executed.
func (s *System) ControllerTicks() uint64 { return s.mcTicks }

// DisableRecycling turns request pooling off: every Submit heap-allocates a
// fresh mem.Request and completed objects are never reused. The reference
// simulation path runs with recycling disabled so it reproduces the
// pre-pooling engine exactly (including its allocation behaviour).
func (s *System) DisableRecycling() { s.pooling = false }

// Submit injects a request from core into the shared memory system at the
// current cycle and returns the request handle the caller can wait on.
func (s *System) Submit(core int, addr uint64, isWrite bool, now uint64) *mem.Request {
	if core < 0 || core >= s.cfg.Cores {
		panic(fmt.Sprintf("memsys: core %d out of range", core))
	}
	s.ageQuarantine(now)
	req := s.newRequest(core, addr, isWrite, now)
	s.nextID++
	req.ID = s.nextID
	s.ingress[core].push(req)
	s.stats.Submitted++
	return req
}

// newRequest allocates (or recycles from the pool) a request with every field
// initialized except the ID, which Submit assigns.
func (s *System) newRequest(core int, addr uint64, isWrite bool, now uint64) *mem.Request {
	var req *mem.Request
	if n := len(s.pool); s.pooling && n > 0 {
		req = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		*req = mem.Request{}
	} else {
		req = &mem.Request{}
	}
	req.Core = core
	req.Addr = addr
	req.IsWrite = isWrite
	req.IssueCycle = now
	req.CompleteCycle = mem.IncompleteCycle
	return req
}

// Completed drains and returns the requests that finished for core since the
// last call. The returned slice is reused: it is only valid until the
// system's next Tick.
func (s *System) Completed(core int) []*mem.Request {
	out := s.completed[core]
	s.completed[core] = out[:0]
	return out
}

// bankOf maps an address to an LLC bank.
func (s *System) bankOf(addr uint64) int {
	line := addr / uint64(s.cfg.LLC.LineBytes)
	return int(line % uint64(len(s.bankBusyUntil)))
}

// Tick simulates cycle now. The driver may leave out cycles before the one
// NextEvent last returned; the system catches up on them itself.
func (s *System) Tick(now uint64) {
	s.ageQuarantine(now)
	s.drainMemoryController(now)
	s.startLLCLookups(now)
	s.finishLLCLookups(now)
	s.moveIngressToRing(now)
	s.deliverRequestsToBanks(now)
	s.deliverResponses(now)
	s.retryMemoryEnqueue(now)
	s.retryResponses(now)
}

// ageQuarantine ages the retirement quarantine through cycle now, one step
// per cycle elapsed since the last call: requests retired two cycles ago enter
// the free list and the current generation becomes the previous one. Tick and
// Submit both call it, so the pool a Submit draws from does not depend on
// which cycles were ticked.
func (s *System) ageQuarantine(now uint64) {
	if !s.pooling || now < s.agedTo {
		return
	}
	// After two steps both generations are empty; more would move nothing.
	for steps := min(now+1-s.agedTo, 2); steps > 0; steps-- {
		s.pool = append(s.pool, s.retiredPrev...)
		recycled := s.retiredPrev[:0]
		s.retiredPrev = s.retiredNow
		s.retiredNow = recycled
	}
	s.agedTo = now + 1
}

// retire queues a finished request for recycling.
func (s *System) retire(req *mem.Request) {
	if !s.pooling {
		return
	}
	s.retiredNow = append(s.retiredNow, req)
}

// moveIngressToRing moves per-core ingress entries onto the request ring in
// round-robin order, respecting ring back-pressure.
func (s *System) moveIngressToRing(now uint64) {
	for core := 0; core < s.cfg.Cores; core++ {
		q := &s.ingress[core]
		for q.len() > 0 {
			if !s.ring.Submit(ring.RequestRing, q.front(), now) {
				break
			}
			q.pop()
		}
	}
}

// deliverRequestsToBanks takes requests off the request ring and places them
// in their bank queues.
func (s *System) deliverRequestsToBanks(now uint64) {
	for _, req := range s.ring.Deliver(ring.RequestRing, now) {
		req.LLCArrival = now
		b := s.bankOf(req.Addr)
		s.bankQueue[b].push(req)
	}
}

// startLLCLookups starts one lookup per free bank per cycle.
func (s *System) startLLCLookups(now uint64) {
	for b := range s.bankQueue {
		if s.bankQueue[b].len() == 0 || s.bankBusyUntil[b] > now {
			continue
		}
		// Bank queueing behind another core's lookup counts as LLC
		// interference (the popped request never matches "other core", so
		// scanning before the pop is equivalent to scanning after it).
		req := s.bankQueue[b].front()
		if wait := now - req.LLCArrival; wait > 0 && s.otherCoreQueued(b, req.Core) {
			req.LLCInterference += wait
		}
		s.bankQueue[b].pop()
		s.bankBusyUntil[b] = now + uint64(s.cfg.LLC.LatencyCyc)
		s.inLookup = append(s.inLookup, lookup{req: req, readyAt: now + uint64(s.cfg.LLC.LatencyCyc)})
	}
}

// otherCoreQueued reports whether bank b's queue holds a request from a core
// other than core.
func (s *System) otherCoreQueued(b, core int) bool {
	for _, r := range s.bankQueue[b].active() {
		if r.Core != core {
			return true
		}
	}
	return false
}

// finishLLCLookups resolves lookups whose tag access completed: hits go to the
// response path, misses go to the memory controller.
func (s *System) finishLLCLookups(now uint64) {
	kept := s.inLookup[:0]
	for _, l := range s.inLookup {
		if l.readyAt > now {
			kept = append(kept, l)
			continue
		}
		req := l.req
		sampled, privateHit := s.atds[req.Core].Access(req.Addr)
		hit := s.llc.Access(req.Core, req.Addr)
		if hit {
			req.LLCHit = true
			s.stats.LLCHits++
			s.toResponse = append(s.toResponse, req)
			continue
		}
		s.stats.LLCMisses++
		if sampled && privateHit {
			// The access would have hit in private mode: interference miss.
			if s.OnInterferenceMiss != nil {
				s.OnInterferenceMiss(req.Core, now)
			}
			req.InterferenceMiss = true
			s.stats.InterferenceMisses++
		}
		s.toMemory = append(s.toMemory, req)
	}
	s.inLookup = kept
}

// retryMemoryEnqueue moves LLC misses into the memory controller, honoring
// its queue capacity.
func (s *System) retryMemoryEnqueue(now uint64) {
	if len(s.toMemory) == 0 {
		return
	}
	s.Settle(now + 1) // cycle now is charged on the queue without these
	kept := s.toMemory[:0]
	for _, req := range s.toMemory {
		if !s.mc.Enqueue(req, now) {
			kept = append(kept, req)
		}
	}
	if len(kept) < len(s.toMemory) {
		s.mcWake = s.mc.NextEvent(now)
	}
	for i := len(kept); i < len(s.toMemory); i++ {
		s.toMemory[i] = nil
	}
	s.toMemory = kept
}

// drainMemoryController ticks the memory controller if it is due. Completed
// DRAM reads fill the LLC (honoring the way partition) and head back to the
// core on the response ring; completed writes (fire-and-forget) are recycled
// here.
func (s *System) drainMemoryController(now uint64) {
	if !s.mcEveryCycle && now < s.mcWake {
		return
	}
	s.Settle(now)
	for _, req := range s.mc.Tick(now) {
		s.llc.Fill(req.Core, req.Addr)
		s.toResponse = append(s.toResponse, req)
	}
	for _, req := range s.mc.CompletedWrites() {
		s.retire(req)
	}
	s.mcAt, s.mcWake = now+1, s.mc.NextEvent(now)
	s.mcTicks++
}

// retryResponses pushes pending responses onto the response ring.
func (s *System) retryResponses(now uint64) {
	kept := s.toResponse[:0]
	for _, req := range s.toResponse {
		if !s.ring.Submit(ring.ResponseRing, req, now) {
			kept = append(kept, req)
		}
	}
	for i := len(kept); i < len(s.toResponse); i++ {
		s.toResponse[i] = nil
	}
	s.toResponse = kept
}

// deliverResponses completes requests whose response reached the core.
func (s *System) deliverResponses(now uint64) {
	for _, req := range s.ring.Deliver(ring.ResponseRing, now) {
		req.CompleteCycle = now
		// For interference-induced LLC misses, the whole trip past the LLC would
		// not have happened in private mode, so the extra latency beyond an LLC
		// hit is interference (DIEF's LLC component). The queueing delay already
		// charged to MemInterference is subtracted to avoid double counting.
		if req.InterferenceMiss {
			hitLatency := uint64(s.cfg.LLC.LatencyCyc) + 2*s.ring.Latency(req.Core)
			if total := req.TotalLatency(); total > hitLatency {
				extra := total - hitLatency
				if extra > req.MemInterference {
					req.LLCInterference += extra - req.MemInterference
				}
			}
		}
		s.stats.Completed++
		s.completed[req.Core] = append(s.completed[req.Core], req)
		s.retire(req)
	}
}

// NextEvent returns a lower bound on the next cycle (strictly after now) at
// which the shared memory system can move a request between stages, assuming
// no new submissions arrive in between. A fully drained system returns
// math.MaxUint64. The driver may skip to the returned cycle in one step (the
// controller's queue-interference charge, the only per-cycle state change of
// an otherwise idle system, is caught up at the settle points).
func (s *System) NextEvent(now uint64) uint64 {
	next := min(s.mcWake, s.ring.NextEvent(now))
	for b := range s.bankQueue {
		if s.bankQueue[b].len() > 0 {
			next = min(next, max(now+1, s.bankBusyUntil[b]))
		}
	}
	for i := range s.inLookup {
		next = min(next, s.inLookup[i].readyAt)
	}
	if next <= now+1 {
		return now + 1
	}
	// Blocked hand-offs: if a retry could succeed right away, the next cycle
	// is an event. (If the downstream stage is full, its drain is already one
	// of the events computed above, and the retry succeeds on the tick that
	// follows it.)
	for _, req := range s.toMemory {
		if s.mc.CanAccept(req.Addr, req.IsWrite) {
			return now + 1
		}
	}
	if len(s.toResponse) > 0 && s.ring.HasSpace(ring.ResponseRing) {
		return now + 1
	}
	for core := range s.ingress {
		if s.ingress[core].len() > 0 && s.ring.HasSpace(ring.RequestRing) {
			return now + 1
		}
	}
	return next
}

// PendingCount returns the number of requests currently anywhere in the
// shared memory system (useful for draining at the end of a run and in tests).
func (s *System) PendingCount() int {
	n := len(s.inLookup) + len(s.toMemory) + len(s.toResponse)
	for i := range s.ingress {
		n += s.ingress[i].len()
	}
	for i := range s.bankQueue {
		n += s.bankQueue[i].len()
	}
	n += s.ring.QueueLen(ring.RequestRing) + s.ring.QueueLen(ring.ResponseRing)
	n += s.mc.QueueOccupancy()
	return n
}

// UnloadedSMSLatency returns the contention-free latency of an LLC hit for a
// given core: ring traversal both ways plus the LLC lookup.
func (s *System) UnloadedSMSLatency(core int) uint64 {
	return 2*s.ring.Latency(core) + uint64(s.cfg.LLC.LatencyCyc)
}
