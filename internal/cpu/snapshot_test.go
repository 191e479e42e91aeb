package cpu

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// probeEvent is one probe call in comparable form: HeadReq is replaced by the
// request's ID, because a restored core holds copies of the request objects.
type probeEvent struct {
	kind                               string
	addr, cycle, latency, interference uint64
	sms                                bool
	state                              CycleState
	headReqID                          uint64
}

// eventLog records the complete probe event stream.
type eventLog struct{ events []probeEvent }

func (l *eventLog) OnLoadIssued(addr, cycle uint64) {
	l.events = append(l.events, probeEvent{kind: "issued", addr: addr, cycle: cycle})
}
func (l *eventLog) OnLoadCompleted(addr uint64, sms bool, cycle, latency, interference uint64) {
	l.events = append(l.events, probeEvent{kind: "completed", addr: addr, sms: sms, cycle: cycle, latency: latency, interference: interference})
}
func (l *eventLog) OnCommitStall(addr uint64, sms bool, cycle uint64) {
	l.events = append(l.events, probeEvent{kind: "stall", addr: addr, sms: sms, cycle: cycle})
}
func (l *eventLog) OnCommitResume(addr uint64, wasSMS bool, cycle uint64) {
	l.events = append(l.events, probeEvent{kind: "resume", addr: addr, sms: wasSMS, cycle: cycle})
}
func (l *eventLog) OnCycle(s CycleState) {
	ev := probeEvent{kind: "cycle", state: s}
	if s.HeadReq != nil {
		ev.headReqID = s.HeadReq.ID
		ev.state.HeadReq = nil
	}
	l.events = append(l.events, ev)
}

// jsonKeys returns the JSON object keys a struct type serializes to.
func jsonKeys(v any) []string {
	var keys []string
	t := reflect.TypeOf(v)
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		keys = append(keys, name)
	}
	slices.Sort(keys)
	return keys
}

// TestCheckpointFormatUnchanged pins the serialized field set of a core: the
// wake-up state is derived, so nothing of it may appear in a checkpoint.
func TestCheckpointFormatUnchanged(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{CoreState{}, "commit_cycle_count fetch_stall_until has_staged inst_index issue_queue l1d l2 mem_ops outstanding_misses pending pending_redirect rob staged stalled_on stats store_buffer"},
		{ROBEntryState{}, "done idx inst issued l1miss req sms stall_seen"},
		{WaiterState{}, "issue_count line merged primary req"},
	} {
		if got := strings.Join(jsonKeys(c.v), " "); got != c.want {
			t.Errorf("%T serializes as\n  %s\nwant\n  %s", c.v, got, c.want)
		}
	}
}

// TestSnapshotRestoreLockStep snapshots a core mid-flight — a wrapped ROB, un-issued entries
// behind unknown producers, loads merged onto an outstanding miss, a pending
// branch redirect — sends the snapshot through JSON into a fresh core, and
// requires the two to stay indistinguishable for the next 6000 cycles: equal
// Stats every cycle and an equal probe event stream, under one completion
// schedule. The restored core's re-derived wake-up state is checked against
// the polling oracle all the way.
func TestSnapshotRestoreLockStep(t *testing.T) {
	const lockStep = 6000
	newMem := func() *fakeMem { return &fakeMem{latency: 40, jitter: 400, seed: 9} }
	fm := newMem()
	orig := newTestCore(t, conflictParams(), fm)

	interesting := func() bool {
		if orig.pendingRedirect == nil || orig.unissued == 0 || orig.robHead+orig.robCount <= len(orig.rob) {
			return false
		}
		for _, w := range orig.pending {
			if len(w.merged) > 0 {
				return true
			}
		}
		return false
	}
	now := uint64(0)
	for ; !interesting(); now++ {
		if now == 200000 {
			t.Fatal("core never reached a state with a wrapped ROB, a pending redirect and merged MSHR waiters")
		}
		run(orig, fm, now, now+1)
	}

	// Snapshot the core, the requests the memory still owes it and the trace
	// position, and send all of it through JSON.
	tbl := mem.NewSnapshotTable()
	var ckpt struct {
		Core     CoreState
		Inflight []int32
		Requests []mem.Request
		Source   trace.GeneratorState
		NextID   uint64
	}
	ckpt.Core = orig.Snapshot(tbl)
	for _, req := range fm.inflight {
		ckpt.Inflight = append(ckpt.Inflight, tbl.Ref(req))
	}
	ckpt.Requests = tbl.Requests
	ckpt.Source = orig.src.(*trace.Generator).SnapshotState()
	ckpt.NextID = fm.nextID
	blob, err := json.Marshal(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Core, ckpt.Inflight, ckpt.Requests = CoreState{}, nil, nil
	if err := json.Unmarshal(blob, &ckpt); err != nil {
		t.Fatal(err)
	}

	fm2 := newMem()
	fm2.nextID = ckpt.NextID
	restored := newTestCore(t, conflictParams(), fm2)
	if err := restored.src.(*trace.Generator).RestoreState(ckpt.Source); err != nil {
		t.Fatal(err)
	}
	rt := mem.NewRestoreTable(ckpt.Requests)
	if err := restored.Restore(ckpt.Core, rt); err != nil {
		t.Fatal(err)
	}
	for _, ref := range ckpt.Inflight {
		fm2.inflight = append(fm2.inflight, rt.Get(ref))
	}

	var logOrig, logRestored eventLog
	orig.AttachProbe(&logOrig)
	restored.AttachProbe(&logRestored)
	var cov wakeCoverage
	checkWakeState(t, restored, now, restored.instIndex, &cov)
	for end := now + lockStep; now < end; now++ {
		run(orig, fm, now, now+1)
		run(restored, fm2, now, now+1)
		checkWakeState(t, restored, now, restored.instIndex, &cov)
		if orig.Stats() != restored.Stats() {
			t.Fatalf("cycle %d: stats diverged\noriginal %+v\nrestored %+v", now, orig.Stats(), restored.Stats())
		}
	}
	if !slices.Equal(logOrig.events, logRestored.events) {
		for i := range logOrig.events {
			if i >= len(logRestored.events) || logOrig.events[i] != logRestored.events[i] {
				t.Fatalf("probe event %d diverged: original %+v", i, logOrig.events[i])
			}
		}
		t.Fatalf("restored core produced %d probe events, original %d", len(logRestored.events), len(logOrig.events))
	}
	if st := orig.Stats(); st.SMSLoads == 0 || st.Instructions == 0 {
		t.Errorf("lock-step run made no progress: %+v", st)
	}
}
