package dram

import (
	"fmt"

	"repro/internal/mem"
)

// QueuedState is one serialized controller-queue entry.
type QueuedState struct {
	Req     int32  `json:"req"`
	Arrival uint64 `json:"arr"`
	Bank    int    `json:"bank"`
	Row     uint64 `json:"row"`
}

// InflightState is one serialized in-service request.
type InflightState struct {
	Req      int32  `json:"req"`
	Complete uint64 `json:"done"`
}

// BankState2 is the serialized open-row state of one DRAM bank. (The name
// avoids colliding with the unexported runtime bankState type.)
type BankState2 struct {
	RowOpen       bool           `json:"open,omitempty"`
	OpenRow       uint64         `json:"row,omitempty"`
	OpenedBy      int            `json:"by,omitempty"`
	BusyUntil     uint64         `json:"busy,omitempty"`
	LastRowByCore map[int]uint64 `json:"last_rows,omitempty"`
}

// ChannelState is the serialized state of one memory channel.
type ChannelState struct {
	ReadQ        []QueuedState   `json:"read_q"`
	WriteQ       []QueuedState   `json:"write_q"`
	Banks        []BankState2    `json:"banks"`
	BusBusyUntil uint64          `json:"bus_busy"`
	BusOwner     int             `json:"bus_owner"`
	Inflight     []InflightState `json:"inflight"`
}

// State is the serializable state of the memory controller.
type State struct {
	Channels     []ChannelState `json:"channels"`
	PriorityCore int            `json:"priority_core"`
	DoneWrites   []int32        `json:"done_writes,omitempty"`

	Reads          uint64 `json:"reads"`
	Writes         uint64 `json:"writes"`
	RowHits        uint64 `json:"row_hits"`
	RowMisses      uint64 `json:"row_misses"`
	RowConflicts   uint64 `json:"row_conflicts"`
	TotalReadLat   uint64 `json:"total_read_lat"`
	CompletedReads uint64 `json:"completed_reads"`
}

func snapshotQueued(q []queued, t *mem.SnapshotTable) []QueuedState {
	out := make([]QueuedState, len(q))
	for i, e := range q {
		out[i] = QueuedState{Req: t.Ref(e.req), Arrival: e.arrival, Bank: e.bank, Row: e.row}
	}
	return out
}

func restoreQueued(src []QueuedState, t *mem.RestoreTable) []queued {
	out := make([]queued, len(src))
	for i, e := range src {
		out[i] = queued{req: t.Get(e.Req), arrival: e.Arrival, bank: e.Bank, row: e.Row}
	}
	return out
}

// Snapshot captures the controller's complete state, registering every queued
// and in-flight request in the snapshot table.
func (c *Controller) Snapshot(t *mem.SnapshotTable) State {
	st := State{
		Channels:       make([]ChannelState, len(c.channels)),
		PriorityCore:   c.priorityCore,
		Reads:          c.reads,
		Writes:         c.writes,
		RowHits:        c.rowHits,
		RowMisses:      c.rowMisses,
		RowConflicts:   c.rowConflicts,
		TotalReadLat:   c.totalReadLat,
		CompletedReads: c.completedReads,
	}
	for _, req := range c.doneWrites {
		st.DoneWrites = append(st.DoneWrites, t.Ref(req))
	}
	for i := range c.channels {
		chn := &c.channels[i]
		cs := ChannelState{
			ReadQ:        snapshotQueued(chn.readQ, t),
			WriteQ:       snapshotQueued(chn.writeQ, t),
			Banks:        make([]BankState2, len(chn.banks)),
			BusBusyUntil: chn.busBusyUntil,
			BusOwner:     chn.busOwner,
			Inflight:     make([]InflightState, len(chn.inflight)),
		}
		for b := range chn.banks {
			bank := &chn.banks[b]
			bs := BankState2{
				RowOpen:   bank.rowOpen,
				OpenRow:   bank.openRow,
				OpenedBy:  bank.openedBy,
				BusyUntil: bank.busyUntil,
			}
			if len(bank.lastRowByCore) > 0 {
				bs.LastRowByCore = make(map[int]uint64, len(bank.lastRowByCore))
				for core, row := range bank.lastRowByCore {
					bs.LastRowByCore[core] = row
				}
			}
			cs.Banks[b] = bs
		}
		for f, inf := range chn.inflight {
			cs.Inflight[f] = InflightState{Req: t.Ref(inf.req), Complete: inf.complete}
		}
		st.Channels[i] = cs
	}
	return st
}

// Restore overwrites the controller's state with a snapshot from a controller
// of identical geometry, resolving request references through the restore
// table. The snapshot is copied, never aliased.
func (c *Controller) Restore(st State, t *mem.RestoreTable) error {
	if len(st.Channels) != len(c.channels) {
		return fmt.Errorf("dram: snapshot has %d channels, controller has %d", len(st.Channels), len(c.channels))
	}
	c.priorityCore = st.PriorityCore
	c.reads, c.writes = st.Reads, st.Writes
	c.rowHits, c.rowMisses, c.rowConflicts = st.RowHits, st.RowMisses, st.RowConflicts
	c.totalReadLat, c.completedReads = st.TotalReadLat, st.CompletedReads
	c.doneWrites = c.doneWrites[:0]
	for _, ref := range st.DoneWrites {
		c.doneWrites = append(c.doneWrites, t.Get(ref))
	}
	for i := range c.channels {
		chn := &c.channels[i]
		cs := st.Channels[i]
		if len(cs.Banks) != len(chn.banks) {
			return fmt.Errorf("dram: snapshot channel %d has %d banks, controller has %d", i, len(cs.Banks), len(chn.banks))
		}
		chn.readQ = restoreQueued(cs.ReadQ, t)
		chn.writeQ = restoreQueued(cs.WriteQ, t)
		chn.busBusyUntil = cs.BusBusyUntil
		chn.busOwner = cs.BusOwner
		chn.inflight = chn.inflight[:0]
		for _, inf := range cs.Inflight {
			chn.inflight = append(chn.inflight, inflight{req: t.Get(inf.Req), complete: inf.Complete})
		}
		for b := range chn.banks {
			bs := cs.Banks[b]
			bank := &chn.banks[b]
			bank.rowOpen = bs.RowOpen
			bank.openRow = bs.OpenRow
			bank.openedBy = bs.OpenedBy
			bank.busyUntil = bs.BusyUntil
			bank.lastRowByCore = make(map[int]uint64, len(bs.LastRowByCore))
			for core, row := range bs.LastRowByCore {
				bank.lastRowByCore[core] = row
			}
		}
	}
	return nil
}
