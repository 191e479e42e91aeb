package cpu

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// ROBEntryState is one serialized reorder-buffer entry. Entries are stored in
// queue order (index 0 = oldest), so the serialized form is independent of
// where the ring buffer's head happened to sit at snapshot time.
type ROBEntryState struct {
	Inst      trace.Instruction `json:"inst"`
	Index     uint64            `json:"idx"`
	Complete  uint64            `json:"done"`
	Issued    bool              `json:"issued,omitempty"`
	IsSMS     bool              `json:"sms,omitempty"`
	IsL1Miss  bool              `json:"l1miss,omitempty"`
	Req       int32             `json:"req"`
	StallSeen bool              `json:"stall_seen,omitempty"`
}

// WaiterState is one serialized outstanding-L1-miss tracker. Primary and
// Merged are queue-order ROB positions. IssueCount is the core's committing-
// cycle counter at issue time (the GDP-O overlap baseline).
type WaiterState struct {
	Line       uint64 `json:"line"`
	Primary    int    `json:"primary"`
	Merged     []int  `json:"merged,omitempty"`
	Req        int32  `json:"req"`
	IssueCount uint64 `json:"issue_count,omitempty"`
}

// CoreState is the complete serializable state of one core: the ROB and issue
// queue, the private caches, the outstanding-miss trackers, the store buffer,
// the branch-redirect and commit-stall bookkeeping and the statistics. Request
// references point into the checkpoint's request table.
type CoreState struct {
	ROB        []ROBEntryState `json:"rob"`
	IssueQueue []int           `json:"issue_queue"`
	InstIndex  uint64          `json:"inst_index"`

	Pending           []WaiterState `json:"pending"`
	OutstandingMisses int           `json:"outstanding_misses"`

	StoreBuffer []uint64 `json:"store_buffer"`

	PendingRedirect int    `json:"pending_redirect"` // queue position, -1 = none
	FetchStallUntil uint64 `json:"fetch_stall_until"`
	StalledOn       int    `json:"stalled_on"` // queue position, -1 = none

	CommitCycleCount uint64 `json:"commit_cycle_count"`
	MemOps           int    `json:"mem_ops"`

	Staged    trace.Instruction `json:"staged"`
	HasStaged bool              `json:"has_staged,omitempty"`

	Stats Stats `json:"stats"`

	L1D cache.CacheState `json:"l1d"`
	L2  cache.CacheState `json:"l2"`
}

// Snapshot captures the core's complete architectural state, registering
// every referenced memory request in the snapshot table.
func (c *Core) Snapshot(t *mem.SnapshotTable) CoreState {
	// Queue position of each live ROB entry, keyed by its slot pointer, so
	// issue-queue and bookkeeping pointers serialize as stable indices.
	queuePos := make(map[*robEntry]int, c.robCount)
	st := CoreState{
		ROB:               make([]ROBEntryState, c.robCount),
		IssueQueue:        make([]int, 0, c.unissued),
		InstIndex:         c.instIndex,
		OutstandingMisses: len(c.pending),
		StoreBuffer:       append([]uint64(nil), c.storeBuffer...),
		PendingRedirect:   -1,
		FetchStallUntil:   c.fetchStallUntil,
		StalledOn:         -1,
		CommitCycleCount:  c.commitCycleCount,
		MemOps:            c.memOps,
		Staged:            c.staged,
		HasStaged:         c.hasStaged,
		Stats:             c.stats,
		L1D:               c.l1d.Snapshot(),
		L2:                c.l2.Snapshot(),
	}
	for qi := 0; qi < c.robCount; qi++ {
		e := c.robAt(qi)
		queuePos[e] = qi
		if !e.issued {
			st.IssueQueue = append(st.IssueQueue, qi)
		}
		st.ROB[qi] = ROBEntryState{
			Inst:      e.inst,
			Index:     e.index,
			Complete:  e.complete,
			Issued:    e.issued,
			IsSMS:     e.isSMS,
			IsL1Miss:  e.isL1Miss,
			Req:       t.Ref(e.req),
			StallSeen: e.stallSeen,
		}
	}
	if c.pendingRedirect != nil {
		st.PendingRedirect = queuePos[c.pendingRedirect]
	}
	if c.stalledOn != nil {
		st.StalledOn = queuePos[c.stalledOn]
	}
	st.Pending = make([]WaiterState, 0, len(c.pending))
	for _, w := range c.pending {
		ws := WaiterState{Line: w.line, Primary: queuePos[w.primary], Req: t.Ref(w.req), IssueCount: w.issueCount}
		for _, m := range w.merged {
			ws.Merged = append(ws.Merged, queuePos[m])
		}
		st.Pending = append(st.Pending, ws)
	}
	// The table's order is incidental (swap-remove); sort for a canonical
	// serialized form.
	sort.Slice(st.Pending, func(i, j int) bool { return st.Pending[i].Line < st.Pending[j].Line })
	return st
}

// Restore overwrites the core's architectural state with a snapshot from a
// core of identical configuration, resolving request references through the
// restore table. The ROB ring is re-laid-out with its head at slot 0 (queue
// order is what matters; absolute slot positions are not observable). The
// snapshot is copied, never aliased.
func (c *Core) Restore(st CoreState, t *mem.RestoreTable) error {
	if len(st.ROB) > len(c.rob) {
		return fmt.Errorf("cpu: core %d snapshot holds %d ROB entries, capacity is %d", c.id, len(st.ROB), len(c.rob))
	}
	if st.OutstandingMisses != len(st.Pending) {
		return fmt.Errorf("cpu: core %d snapshot counts %d outstanding misses but lists %d", c.id, st.OutstandingMisses, len(st.Pending))
	}
	if err := c.l1d.Restore(st.L1D); err != nil {
		return err
	}
	if err := c.l2.Restore(st.L2); err != nil {
		return err
	}
	c.robHead = 0
	c.robCount = len(st.ROB)
	for i := range c.rob {
		c.rob[i] = robEntry{}
	}
	for qi, es := range st.ROB {
		c.rob[qi] = robEntry{
			inst:      es.Inst,
			index:     es.Index,
			complete:  es.Complete,
			issued:    es.Issued,
			isSMS:     es.IsSMS,
			isL1Miss:  es.IsL1Miss,
			req:       t.Get(es.Req),
			stallSeen: es.StallSeen,
		}
	}
	entryAt := func(qi int, what string) (*robEntry, error) {
		if qi < 0 || qi >= c.robCount {
			return nil, fmt.Errorf("cpu: core %d snapshot %s position %d outside ROB of %d entries", c.id, what, qi, c.robCount)
		}
		return &c.rob[qi], nil
	}
	// The wake-up state is not part of the snapshot: re-derive it for every
	// un-issued entry from the restored completion cycles (robHead is 0, so a
	// queue position is its slot).
	c.unissued = len(st.IssueQueue)
	clear(c.resolved)
	for _, qi := range st.IssueQueue {
		e, err := entryAt(qi, "issue-queue")
		if err != nil {
			return err
		}
		c.linkProducers(e, qi)
	}
	c.pendingRedirect = nil
	if st.PendingRedirect >= 0 {
		e, err := entryAt(st.PendingRedirect, "redirect")
		if err != nil {
			return err
		}
		c.pendingRedirect = e
	}
	c.stalledOn = nil
	if st.StalledOn >= 0 {
		e, err := entryAt(st.StalledOn, "stall")
		if err != nil {
			return err
		}
		c.stalledOn = e
	}
	for i, w := range c.pending {
		c.putWaiter(w)
		c.pending[i] = nil
	}
	c.pending = c.pending[:0]
	for _, ws := range st.Pending {
		w := c.getWaiter()
		primary, err := entryAt(ws.Primary, "waiter")
		if err != nil {
			return err
		}
		w.line = ws.Line
		w.primary = primary
		w.req = t.Get(ws.Req)
		w.issueCount = ws.IssueCount
		for _, mi := range ws.Merged {
			m, err := entryAt(mi, "merged waiter")
			if err != nil {
				return err
			}
			w.merged = append(w.merged, m)
		}
		c.pending = append(c.pending, w)
	}
	c.instIndex = st.InstIndex
	c.storeBuffer = append(c.storeBuffer[:0], st.StoreBuffer...)
	c.fetchStallUntil = st.FetchStallUntil
	c.commitCycleCount = st.CommitCycleCount
	c.memOps = st.MemOps
	c.staged = st.Staged
	c.hasStaged = st.HasStaged
	c.stats = st.Stats
	c.fuIntALU, c.fuIntMul, c.fuFPALU, c.fuFPMul, c.fuMemPorts = 0, 0, 0, 0, 0
	// Conservatively treat the restored core as active: the driver simulates
	// the first post-restore cycle explicitly rather than trusting a stale
	// idle proof, which is always correct (fast-forwarding is an optimization).
	c.active = true
	return nil
}
