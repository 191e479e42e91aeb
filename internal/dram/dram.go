// Package dram models the off-chip memory system: per-channel memory
// controllers with read/write queues, FR-FCFS scheduling, open-page row
// buffers and DDR2/DDR4 timing. The model exposes the two hooks the GDP
// evaluation needs beyond plain timing:
//
//   - the priority rotation of the invasive ASM accounting scheme (the owner
//     of the current epoch has its requests scheduled ahead of FR-FCFS
//     order), and
//   - per-request interference counters (queueing delay behind other cores and
//     row-buffer locality destroyed by other cores) consumed by DIEF.
package dram

import (
	"math"

	"repro/internal/config"
	"repro/internal/mem"
)

// queued is a request waiting in a controller queue.
type queued struct {
	req     *mem.Request
	arrival uint64
	bank    int
	row     uint64
}

// inflight is a request being serviced.
type inflight struct {
	req      *mem.Request
	complete uint64
}

// bankState tracks the open row of one DRAM bank.
type bankState struct {
	rowOpen   bool
	openRow   uint64
	openedBy  int
	busyUntil uint64
	// lastRowByCore remembers the last row each core touched in this bank, to
	// detect row-buffer locality destroyed by other cores (DIEF).
	lastRowByCore map[int]uint64
}

// channel is one memory channel with its own queues, banks and data bus.
type channel struct {
	readQ        []queued
	writeQ       []queued
	banks        []bankState
	busBusyUntil uint64
	busOwner     int
	inflight     []inflight
}

// Controller is the multi-channel memory controller.
type Controller struct {
	cfg      config.DRAMConfig
	channels []channel
	// drainAt is the write-queue occupancy at which writes are drained even
	// if reads are pending: three quarters of the write queue.
	drainAt int

	// epoch and cores are the priority rotation SetRotation programs: each
	// cycle's EpochOwner is scheduled first. epoch 0 means no rotation.
	epoch uint64
	cores int

	// doneBuf is the reused Tick return buffer (valid until the next Tick).
	doneBuf []*mem.Request
	// doneWrites collects completed write requests so the shared memory
	// system can recycle their objects; drained by CompletedWrites.
	doneWrites []*mem.Request

	// Stats.
	reads, writes  uint64
	rowHits        uint64
	rowMisses      uint64
	rowConflicts   uint64
	totalReadLat   uint64
	completedReads uint64
}

// New creates a memory controller for a DRAM configuration that
// config.CMPConfig.Validate accepted.
func New(cfg config.DRAMConfig) *Controller {
	c := &Controller{cfg: cfg, drainAt: cfg.WriteQueue * 3 / 4}
	c.channels = make([]channel, cfg.Channels)
	for i := range c.channels {
		c.channels[i].banks = make([]bankState, cfg.BanksPerChan)
		for b := range c.channels[i].banks {
			c.channels[i].banks[b].lastRowByCore = map[int]uint64{}
		}
		c.channels[i].busOwner = -1
	}
	return c
}

// EpochOwner is ASM's priority schedule: epoch k covers cycles
// [k·epoch, (k+1)·epoch) and belongs to core k mod cores, so core 0 owns the
// epoch a run starts in. epoch must be positive.
func EpochOwner(cycle, epoch uint64, cores int) int {
	return int(cycle / epoch % uint64(cores))
}

// SetRotation makes the controller schedule the requests of each cycle's
// EpochOwner ahead of FR-FCFS order (ASM's invasive mechanism). An epoch of
// 0 restores pure FR-FCFS.
func (c *Controller) SetRotation(epoch uint64, cores int) { c.epoch, c.cores = epoch, cores }

// mapAddress returns the channel, bank and row for an address. Pages are
// interleaved across channels and banks so that accesses within one DRAM page
// stay in the same bank and row (preserving row-buffer locality under the
// open-page policy) while consecutive pages spread across channels and banks.
func (c *Controller) mapAddress(addr uint64) (ch, bank int, row uint64) {
	page := addr / uint64(c.cfg.PageBytes)
	ch = int(page % uint64(c.cfg.Channels))
	page /= uint64(c.cfg.Channels)
	bank = int(page % uint64(c.cfg.BanksPerChan))
	row = page / uint64(c.cfg.BanksPerChan)
	return ch, bank, row
}

// Enqueue adds a request to the appropriate channel queue. It returns false
// when the queue is full.
func (c *Controller) Enqueue(req *mem.Request, now uint64) bool {
	ch, bank, row := c.mapAddress(req.Addr)
	chn := &c.channels[ch]
	q := queued{req: req, arrival: now, bank: bank, row: row}
	if req.IsWrite {
		if len(chn.writeQ) >= c.cfg.WriteQueue {
			return false
		}
		chn.writeQ = append(chn.writeQ, q)
		c.writes++
		return true
	}
	if len(chn.readQ) >= c.cfg.ReadQueue {
		return false
	}
	chn.readQ = append(chn.readQ, q)
	c.reads++
	req.MemArrival = now
	return true
}

// QueueOccupancy returns the total read-queue occupancy across channels.
func (c *Controller) QueueOccupancy() int {
	total := 0
	for i := range c.channels {
		total += len(c.channels[i].readQ)
	}
	return total
}

// CanAccept reports whether a read request to addr can currently be enqueued.
func (c *Controller) CanAccept(addr uint64, isWrite bool) bool {
	ch, _, _ := c.mapAddress(addr)
	if isWrite {
		return len(c.channels[ch].writeQ) < c.cfg.WriteQueue
	}
	return len(c.channels[ch].readQ) < c.cfg.ReadQueue
}

// serviceLatency returns the latency of servicing a request given the bank's
// row state, and a row-state classification (0 hit, 1 closed, 2 conflict).
func (c *Controller) serviceLatency(b *bankState, row uint64) (int, int) {
	t := &c.cfg
	switch {
	case b.rowOpen && b.openRow == row:
		return t.TCAS + t.BurstCyc, 0
	case !b.rowOpen:
		return t.TRCD + t.TCAS + t.BurstCyc, 1
	default:
		return t.TRP + t.TRCD + t.TCAS + t.BurstCyc, 2
	}
}

// pickFRFCFS selects the index of the next request to service from q per
// FR-FCFS with the optional priority core (-1: none): its requests first, then
// row hits, then oldest-first (queue order breaks exact ties, so the choice
// is deterministic). It only considers requests whose bank is free. Returns
// -1 when nothing can issue. The selection is a single allocation-free pass —
// this runs once per channel per cycle, squarely on the hot path.
func (c *Controller) pickFRFCFS(chn *channel, q []queued, now uint64, priorityCore int) int {
	best := -1
	var bestPriority, bestRowHit bool
	var bestArrival uint64
	for i := range q {
		b := &chn.banks[q[i].bank]
		if b.busyUntil > now {
			continue
		}
		priority := q[i].req.Core == priorityCore
		rowHit := b.rowOpen && b.openRow == q[i].row
		if best >= 0 {
			if bestPriority != priority {
				if bestPriority {
					continue
				}
			} else if bestRowHit != rowHit {
				if bestRowHit {
					continue
				}
			} else if q[i].arrival >= bestArrival {
				continue
			}
		}
		best, bestPriority, bestRowHit, bestArrival = i, priority, rowHit, q[i].arrival
	}
	return best
}

// Tick advances the controller by one cycle and returns the read requests
// whose data transfer completed this cycle. The returned slice is reused and
// only valid until the next Tick.
func (c *Controller) Tick(now uint64) []*mem.Request {
	done := c.doneBuf[:0]
	priorityCore := -1
	if c.epoch > 0 {
		priorityCore = EpochOwner(now, c.epoch, c.cores)
	}
	for chIdx := range c.channels {
		chn := &c.channels[chIdx]

		// Complete in-flight transfers.
		kept := chn.inflight[:0]
		for _, f := range chn.inflight {
			if f.complete <= now {
				f.req.CompleteCycle = now
				if !f.req.IsWrite {
					c.totalReadLat += f.req.CompleteCycle - f.req.MemArrival
					c.completedReads++
					done = append(done, f.req)
				} else {
					c.doneWrites = append(c.doneWrites, f.req)
				}
			} else {
				kept = append(kept, f)
			}
		}
		chn.inflight = kept

		// Charge queueing interference: a waiting read accumulates one cycle of
		// memory interference for every cycle its bank or the data bus is busy
		// with another core's request.
		for i := range chn.readQ {
			q := &chn.readQ[i]
			b := &chn.banks[q.bank]
			if (b.busyUntil > now && b.openedBy != q.req.Core) ||
				(chn.busBusyUntil > now && chn.busOwner >= 0 && chn.busOwner != q.req.Core) {
				q.req.MemInterference++
			}
		}

		// Issue at most one new command per channel per cycle.
		if chn.busBusyUntil > now {
			continue
		}
		useWrites := len(chn.readQ) == 0 && len(chn.writeQ) > 0 ||
			len(chn.writeQ) >= c.drainAt
		q := &chn.readQ
		if useWrites {
			q = &chn.writeQ
		}
		idx := c.pickFRFCFS(chn, *q, now, priorityCore)
		if idx < 0 {
			continue
		}
		item := (*q)[idx]
		*q = append((*q)[:idx], (*q)[idx+1:]...)

		b := &chn.banks[item.bank]
		lat, rowClass := c.serviceLatency(b, item.row)
		switch rowClass {
		case 0:
			c.rowHits++
		case 1:
			c.rowMisses++
		default:
			c.rowConflicts++
		}
		// Row-buffer interference (DIEF): the request would have been a row hit
		// in private mode (its core's previous access to this bank used the
		// same row) but the row is now closed or holds another core's row.
		if rowClass != 0 {
			if prevRow, ok := b.lastRowByCore[item.req.Core]; ok && prevRow == item.row && b.openedBy != item.req.Core {
				item.req.MemInterference += uint64(lat - (c.cfg.TCAS + c.cfg.BurstCyc))
			}
		}

		b.rowOpen = true
		b.openRow = item.row
		b.openedBy = item.req.Core
		b.busyUntil = now + uint64(lat)
		b.lastRowByCore[item.req.Core] = item.row
		chn.busBusyUntil = now + uint64(lat)
		chn.busOwner = item.req.Core
		chn.inflight = append(chn.inflight, inflight{req: item.req, complete: now + uint64(lat)})
	}
	c.doneBuf = done
	return done
}

// CompletedWrites drains the write requests whose data transfer finished
// since the last call, so their objects can be recycled. The returned slice
// is reused and only valid until the next call.
func (c *Controller) CompletedWrites() []*mem.Request {
	out := c.doneWrites
	c.doneWrites = c.doneWrites[:0]
	return out
}

// NextEvent returns a lower bound on the next cycle (strictly after now) at
// which the controller can complete a transfer or issue a command, assuming
// no new requests are enqueued in between. Idle controllers return
// math.MaxUint64. Between now and the returned cycle the only per-cycle state
// change is the queue-interference charge, which FastForward reproduces
// exactly, so the driver may hold the bound across ticks of the rest of the
// memory system and leave the controller's Tick out until it or an Enqueue.
func (c *Controller) NextEvent(now uint64) uint64 {
	next := uint64(math.MaxUint64)
	for chIdx := range c.channels {
		chn := &c.channels[chIdx]
		for i := range chn.inflight {
			if t := chn.inflight[i].complete; t < next {
				next = t
			}
		}
		// Earliest command issue: the queue the scheduling policy would pick
		// (queue contents are constant during an idle span, so the policy
		// choice is too), constrained by the data bus and each request's bank.
		useWrites := len(chn.readQ) == 0 && len(chn.writeQ) > 0 ||
			len(chn.writeQ) >= c.drainAt
		q := chn.readQ
		if useWrites {
			q = chn.writeQ
		}
		for i := range q {
			t := now + 1
			if chn.busBusyUntil > t {
				t = chn.busBusyUntil
			}
			if b := chn.banks[q[i].bank].busyUntil; b > t {
				t = b
			}
			if t < next {
				next = t
			}
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// FastForward applies the per-cycle queue-interference charge for the span
// [from, to) in closed form: a waiting read accumulates one cycle of memory
// interference for every cycle its bank or the channel's data bus is busy
// with another core's request, exactly as per-cycle Ticks would have charged
// (the busy windows are fixed during an idle span, so the count is the
// overlap of [from, to) with the union of the two windows). The span may hold
// memory-system ticks but no controller Tick, and must end by an Enqueue's
// cycle inclusive: the driver settles [from, now+1) before one at cycle now.
func (c *Controller) FastForward(from, to uint64) {
	if to <= from {
		return
	}
	for chIdx := range c.channels {
		chn := &c.channels[chIdx]
		if len(chn.readQ) == 0 {
			continue
		}
		busBusy := uint64(0)
		if chn.busBusyUntil > from && chn.busOwner >= 0 {
			busBusy = chn.busBusyUntil
		}
		for i := range chn.readQ {
			q := &chn.readQ[i]
			until := uint64(0)
			if b := &chn.banks[q.bank]; b.busyUntil > from && b.openedBy != q.req.Core {
				until = b.busyUntil
			}
			if busBusy > until && chn.busOwner != q.req.Core {
				until = busBusy
			}
			if until > from {
				end := until
				if end > to {
					end = to
				}
				q.req.MemInterference += end - from
			}
		}
	}
}

// Stats summarizes the work the controller has done.
type Stats struct {
	Reads, Writes                    uint64
	RowHits, RowMisses, RowConflicts uint64
	AvgReadLatency                   float64
}

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats {
	s := Stats{
		Reads: c.reads, Writes: c.writes,
		RowHits: c.rowHits, RowMisses: c.rowMisses, RowConflicts: c.rowConflicts,
	}
	if c.completedReads > 0 {
		s.AvgReadLatency = float64(c.totalReadLat) / float64(c.completedReads)
	}
	return s
}
