package memsys

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/ring"
)

// LookupState is one serialized in-flight LLC lookup.
type LookupState struct {
	Req     int32  `json:"req"`
	ReadyAt uint64 `json:"ready"`
}

// State is the serializable state of the shared memory system, composed from
// the states of its parts. Every request reference points into the
// checkpoint's shared request table.
type State struct {
	Ring ring.State       `json:"ring"`
	LLC  cache.CacheState `json:"llc"`
	ATDs []cache.ATDState `json:"atds"`
	MC   dram.State       `json:"mc"`

	Ingress       [][]int32     `json:"ingress"`
	BankBusyUntil []uint64      `json:"bank_busy"`
	BankQueues    [][]int32     `json:"bank_queues"`
	InLookup      []LookupState `json:"in_lookup"`
	ToMemory      []int32       `json:"to_memory"`
	ToResponse    []int32       `json:"to_response"`
	Completed     [][]int32     `json:"completed"`

	NextID uint64 `json:"next_id"`
	Stats  Stats  `json:"stats"`
}

func snapshotReqQueue(q *reqQueue, t *mem.SnapshotTable) []int32 {
	live := q.active()
	out := make([]int32, len(live))
	for i, r := range live {
		out[i] = t.Ref(r)
	}
	return out
}

func restoreReqQueue(q *reqQueue, refs []int32, t *mem.RestoreTable) {
	q.items = q.items[:0]
	q.head = 0
	for _, ref := range refs {
		q.push(t.Get(ref))
	}
}

func snapshotReqSlice(reqs []*mem.Request, t *mem.SnapshotTable) []int32 {
	out := make([]int32, len(reqs))
	for i, r := range reqs {
		out[i] = t.Ref(r)
	}
	return out
}

func restoreReqSlice(dst []*mem.Request, refs []int32, t *mem.RestoreTable) []*mem.Request {
	dst = dst[:0]
	for _, ref := range refs {
		dst = append(dst, t.Get(ref))
	}
	return dst
}

// Snapshot captures the complete shared-memory-system state, registering
// every in-flight request in the snapshot table.
func (s *System) Snapshot(t *mem.SnapshotTable) State {
	st := State{
		Ring:          s.ring.Snapshot(t),
		LLC:           s.llc.Snapshot(),
		ATDs:          make([]cache.ATDState, len(s.atds)),
		MC:            s.mc.Snapshot(t),
		Ingress:       make([][]int32, len(s.ingress)),
		BankBusyUntil: append([]uint64(nil), s.bankBusyUntil...),
		BankQueues:    make([][]int32, len(s.bankQueue)),
		InLookup:      make([]LookupState, len(s.inLookup)),
		ToMemory:      snapshotReqSlice(s.toMemory, t),
		ToResponse:    snapshotReqSlice(s.toResponse, t),
		Completed:     make([][]int32, len(s.completed)),
		NextID:        s.nextID,
		Stats:         s.stats,
	}
	for i := range s.atds {
		st.ATDs[i] = s.atds[i].Snapshot()
	}
	for i := range s.ingress {
		st.Ingress[i] = snapshotReqQueue(&s.ingress[i], t)
	}
	for i := range s.bankQueue {
		st.BankQueues[i] = snapshotReqQueue(&s.bankQueue[i], t)
	}
	for i, l := range s.inLookup {
		st.InLookup[i] = LookupState{Req: t.Ref(l.req), ReadyAt: l.readyAt}
	}
	for i := range s.completed {
		st.Completed[i] = snapshotReqSlice(s.completed[i], t)
	}
	// The request pool and the retirement quarantine hold only dead objects;
	// any of them still referenced by a live holder enter the table through
	// that reference. A restored system simply starts with an empty pool.
	return st
}

// Restore overwrites the system's state with a snapshot from a system of
// identical configuration, resolving request references through the restore
// table. The pool and retirement quarantine restart empty (steady-state
// pooling refills them); the snapshot is copied, never aliased. The driver
// then anchors the controller's clock at the snapshot's cycle (StartClock).
func (s *System) Restore(st State, t *mem.RestoreTable) error {
	if len(st.Ingress) != len(s.ingress) || len(st.ATDs) != len(s.atds) || len(st.Completed) != len(s.completed) {
		return fmt.Errorf("memsys: snapshot is for %d cores, system has %d", len(st.Ingress), len(s.ingress))
	}
	if len(st.BankBusyUntil) != len(s.bankBusyUntil) || len(st.BankQueues) != len(s.bankQueue) {
		return fmt.Errorf("memsys: snapshot is for %d banks, system has %d", len(st.BankQueues), len(s.bankQueue))
	}
	if err := s.ring.Restore(st.Ring, t); err != nil {
		return err
	}
	if err := s.llc.Restore(st.LLC); err != nil {
		return err
	}
	for i := range s.atds {
		if err := s.atds[i].Restore(st.ATDs[i]); err != nil {
			return err
		}
	}
	if err := s.mc.Restore(st.MC, t); err != nil {
		return err
	}
	for i := range s.ingress {
		restoreReqQueue(&s.ingress[i], st.Ingress[i], t)
	}
	copy(s.bankBusyUntil, st.BankBusyUntil)
	for i := range s.bankQueue {
		restoreReqQueue(&s.bankQueue[i], st.BankQueues[i], t)
	}
	s.inLookup = s.inLookup[:0]
	for _, l := range st.InLookup {
		s.inLookup = append(s.inLookup, lookup{req: t.Get(l.Req), readyAt: l.ReadyAt})
	}
	s.toMemory = restoreReqSlice(s.toMemory, st.ToMemory, t)
	s.toResponse = restoreReqSlice(s.toResponse, st.ToResponse, t)
	for i := range s.completed {
		s.completed[i] = restoreReqSlice(s.completed[i], st.Completed[i], t)
	}
	for i := range s.pools {
		s.pools[i] = nil
	}
	s.retiredNow = nil
	s.retiredPrev = nil
	s.nextID = st.NextID
	s.stats = st.Stats
	return nil
}
