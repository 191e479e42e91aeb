package cpu

import "repro/internal/mem"

// StallKind classifies why the commit stage made no progress in a cycle.
// The taxonomy follows Section III of the GDP paper.
type StallKind int

const (
	// StallNone means at least one instruction committed this cycle.
	StallNone StallKind = iota
	// StallInd is a memory-independent stall (waiting on a compute result,
	// an empty ROB after a branch redirect, and similar front-end effects).
	StallInd
	// StallPMS is a stall on a load serviced by the private memory system
	// (L1 or L2 hit that has not completed yet).
	StallPMS
	// StallSMS is a stall on a load serviced by the shared memory system
	// (the load crossed the ring to the LLC and possibly DRAM).
	StallSMS
	// StallOther covers the rare events of Section III: a full store buffer
	// with a store at the head of the ROB, a blocked L1 data cache, and
	// wrong-path-only ROB contents after a mispredict.
	StallOther
)

// String returns a short name for the stall kind.
func (k StallKind) String() string {
	switch k {
	case StallNone:
		return "commit"
	case StallInd:
		return "ind"
	case StallPMS:
		return "pms"
	case StallSMS:
		return "sms"
	case StallOther:
		return "other"
	default:
		return "unknown"
	}
}

// CycleState is the snapshot of a stall handed to stall probes. It contains
// exactly the observable state the transparent architecture-centric techniques
// monitor while commit is stalled: ROB occupancy, the load at the head of the
// ROB (if any) and the population of outstanding shared-memory-system
// requests. The core owns one and rewrites it in place for every call, so the
// pointer a probe receives is valid only during that call.
type CycleState struct {
	ROBFull bool

	// HeadIsLoad reports an incomplete load at the head of the ROB.
	HeadIsLoad bool
	// HeadReq is the in-flight shared-memory request of the head load, when
	// the head is an incomplete SMS load. Its interference counters update as
	// the memory system simulates, so probes see the running values.
	HeadReq *mem.Request

	// Outstanding shared-memory-system loads of this core.
	PendingSMSLoads           int
	PendingInterferenceMisses int
}

// Probe observes the events the dataflow and architecture-centric accounting
// techniques need. Every method is called synchronously from the core's Tick
// (or, for a completion, from CompleteRequest just before it). The running
// committing-cycle count the load events carry is the core's
// Stats.CommitCycles at the call; the cycle being ticked is not counted yet.
type Probe interface {
	// OnLoadIssued fires when a load misses in the L1 data cache and a request
	// is issued towards the L2/shared memory system (GDP Algorithm 1).
	OnLoadIssued(addr uint64, cycle uint64, commitCycles uint64)
	// OnLoadCompleted fires when an L1-miss load completes. sms reports
	// whether the request visited the shared memory system; latency is the
	// request's total latency and interference the portion DIEF attributes to
	// other cores (GDP Algorithm 2).
	OnLoadCompleted(addr uint64, sms bool, cycle uint64, latency, interference uint64, commitCycles uint64)
	// OnCommitStall fires when commit stops because an incomplete load is at
	// the head of the ROB.
	OnCommitStall(addr uint64, sms bool, cycle uint64)
	// OnCommitResume fires when commit resumes after a load-induced stall
	// (GDP Algorithm 3).
	OnCommitResume(addr uint64, wasSMS bool, cycle uint64)
}

// StallProbe is a Probe that also observes the core's stall cycles. The core
// reports every cycle on which nothing commits to it, and no other cycle: a
// probe that needs the committing cycles reads them from the load events'
// count or from the interval's Stats. AttachProbe finds out by a type
// assertion, so a probe that does not implement OnCycles costs nothing per
// cycle.
type StallProbe interface {
	Probe
	// OnCycles reports n consecutive non-committing cycles that share the
	// snapshot s: n = 1 for a ticked cycle, and a whole span when the driver
	// proves the core idle over it (nothing commits, issues, dispatches or
	// drains), reported by FastForward, which the simulation driver may call
	// some cycles after the span ended. OnCycles(s, n) must be exactly
	// equivalent to n calls OnCycles(s, 1). Implementations must not modify
	// the CycleState or retain the pointer past the call.
	//
	// Only this core is idle over a span: the driver defers the call until
	// the core's next event, so other cores and the memory system may have
	// acted on cycles inside it. A span may read the probe's own state, the
	// snapshot, and state its accountant changes only in a Tick scheduled by
	// the accountant's NextEvent (the driver settles every core before such a
	// Tick). Of an in-flight request the snapshot points to it may read
	// InterferenceMiss (kept constant over a span via
	// memsys.System.OnInterferenceMiss) and nothing else: the interference
	// counters keep running until the request completes.
	OnCycles(s *CycleState, n uint64)
}

// NopProbe is a Probe that ignores every event. Embed it to implement only a
// subset of the interface.
type NopProbe struct{}

// OnLoadIssued implements Probe.
func (NopProbe) OnLoadIssued(uint64, uint64, uint64) {}

// OnLoadCompleted implements Probe.
func (NopProbe) OnLoadCompleted(uint64, bool, uint64, uint64, uint64, uint64) {}

// OnCommitStall implements Probe.
func (NopProbe) OnCommitStall(uint64, bool, uint64) {}

// OnCommitResume implements Probe.
func (NopProbe) OnCommitResume(uint64, bool, uint64) {}
