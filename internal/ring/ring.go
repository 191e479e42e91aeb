// Package ring models the on-chip ring interconnect that connects the
// per-core private cache hierarchies to the banks of the shared last-level
// cache. The model captures the two properties the GDP evaluation depends on:
// a fixed per-hop transfer latency and bandwidth-limited queues in which a
// request can be delayed behind requests from other cores (the delay is
// recorded per request so DIEF can subtract it when estimating private-mode
// latency).
package ring

import (
	"math"

	"repro/internal/config"
	"repro/internal/mem"
)

// Direction selects the request or response ring.
type Direction int

const (
	// RequestRing carries core-to-LLC traffic.
	RequestRing Direction = iota
	// ResponseRing carries LLC-to-core traffic.
	ResponseRing
)

// entry is one queued message.
type entry struct {
	req        *mem.Request
	ready      uint64 // cycle the message has finished its hop traversal
	enqueued   uint64
	aheadOther bool // another core's message was ahead of this one at submit time
}

// Ring is a bandwidth-limited ring network. Each cycle it can deliver at most
// `lanes` messages per direction; messages wait in FIFO order and accumulate
// hop latency proportional to the distance between source and destination.
type Ring struct {
	hopLatency int
	queueCap   int
	reqLanes   int
	rspLanes   int

	reqQueue []entry
	rspQueue []entry

	// Reused delivery buffers (one per direction, so zero steady-state
	// allocations on the hot path). The returned slice is only valid until
	// the next Deliver call in the same direction.
	reqOut []*mem.Request
	rspOut []*mem.Request

	// Stats.
	reqDelivered  uint64
	rspDelivered  uint64
	totalQueueing uint64
}

// New creates the ring interconnect of a CMP configuration that
// config.CMPConfig.Validate accepted.
func New(cfg *config.CMPConfig) *Ring {
	return &Ring{
		hopLatency: cfg.Ring.HopLatency,
		queueCap:   cfg.Ring.QueueEntries,
		reqLanes:   cfg.Ring.RequestRings,
		rspLanes:   cfg.Ring.ResponseRings,
	}
}

// hops returns the hop count between a core and the LLC. Cores are laid out
// around the ring; the LLC banks sit at a fixed stop so the distance grows
// with the core index (average distance grows with core count, as in the
// paper's 2-ring 8-core configuration).
func (r *Ring) hops(core int) int {
	h := core/2 + 1
	if h < 1 {
		h = 1
	}
	return h
}

// Latency returns the unloaded (contention-free) traversal latency for a core.
func (r *Ring) Latency(core int) uint64 {
	return uint64(r.hops(core) * r.hopLatency)
}

// Submit enqueues a request in the given direction at the current cycle.
// It returns false when the queue is full (back-pressure).
func (r *Ring) Submit(dir Direction, req *mem.Request, now uint64) bool {
	q := &r.reqQueue
	if dir == ResponseRing {
		q = &r.rspQueue
	}
	if len(*q) >= r.queueCap {
		return false
	}
	*q = append(*q, entry{
		req:        req,
		ready:      now + r.Latency(req.Core),
		enqueued:   now,
		aheadOther: r.otherCoreTraffic(*q, req.Core),
	})
	return true
}

// Deliver pops the messages whose traversal has finished, up to the per-cycle
// lane limit, in FIFO order. For every delivered request it records how many
// cycles the message waited beyond its unloaded latency behind messages from
// *other* cores (ring interference, for DIEF).
func (r *Ring) Deliver(dir Direction, now uint64) []*mem.Request {
	q := &r.reqQueue
	lanes := r.reqLanes
	buf := &r.reqOut
	if dir == ResponseRing {
		q = &r.rspQueue
		lanes = r.rspLanes
		buf = &r.rspOut
	}
	out := (*buf)[:0]
	kept := (*q)[:0]
	for _, e := range *q {
		if len(out) < lanes && e.ready <= now {
			waited := now - e.enqueued
			unloaded := r.Latency(e.req.Core)
			if waited > unloaded {
				queueing := waited - unloaded
				r.totalQueueing += queueing
				// Attribute queueing to interference only when a message from
				// another core was ahead of this one; a core alone in the
				// system only queues behind itself.
				if e.aheadOther {
					e.req.RingInterference += queueing
				}
			}
			out = append(out, e.req)
			continue
		}
		kept = append(kept, e)
	}
	*q = kept
	*buf = out
	if dir == RequestRing {
		r.reqDelivered += uint64(len(out))
	} else {
		r.rspDelivered += uint64(len(out))
	}
	return out
}

// NextEvent returns a lower bound on the next cycle (strictly after now) at
// which the ring can deliver a message, assuming no new submissions arrive in
// between. With both queues empty it returns math.MaxUint64. The bound is
// exact for idle spans: between now and the returned cycle, a Deliver call
// would pop nothing and mutate no state, so the simulation driver can skip
// the span in one step.
func (r *Ring) NextEvent(now uint64) uint64 {
	next := uint64(math.MaxUint64)
	for i := range r.reqQueue {
		if e := &r.reqQueue[i]; e.ready < next {
			next = e.ready
		}
	}
	for i := range r.rspQueue {
		if e := &r.rspQueue[i]; e.ready < next {
			next = e.ready
		}
	}
	if next <= now {
		// Messages are ready but lane-limited: delivery continues every cycle.
		return now + 1
	}
	return next
}

// otherCoreTraffic reports whether the queue currently holds a message from a
// core other than core.
func (r *Ring) otherCoreTraffic(q []entry, core int) bool {
	for _, e := range q {
		if e.req.Core != core {
			return true
		}
	}
	return false
}

// HasSpace reports whether the selected queue can accept another message.
func (r *Ring) HasSpace(dir Direction) bool {
	return r.QueueLen(dir) < r.queueCap
}

// QueueLen returns the occupancy of the selected queue.
func (r *Ring) QueueLen(dir Direction) int {
	if dir == ResponseRing {
		return len(r.rspQueue)
	}
	return len(r.reqQueue)
}

// Delivered returns the number of delivered requests and responses.
func (r *Ring) Delivered() (requests, responses uint64) {
	return r.reqDelivered, r.rspDelivered
}

// TotalQueueing returns the cumulative queueing delay observed on both rings.
func (r *Ring) TotalQueueing() uint64 { return r.totalQueueing }
