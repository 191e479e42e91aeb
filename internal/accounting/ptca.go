package accounting

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// PTCA implements Per-Thread Cycle Accounting (Du Bois et al.), the stronger
// transparent architecture-centric baseline. PTCA assumes that the cycles of
// memory-system interference a load request suffers while the ROB is full
// would not occur in private mode: for every stall on a shared-memory load it
// removes min(stall length, the request's interference latency observed while
// the ROB was full) from the shared-mode cycle count.
//
// PTCA processes loads independently, so a single interference event that
// delays several parallel loads is subtracted several times; this is the MLP
// blind spot the GDP paper's Section II describes, and it is what makes PTCA
// underestimate private-mode cycles for high-MLP workloads (libquantum) and
// overestimate them for workloads whose ROB fills slowly (lbm).
type PTCA struct {
	probes []*ptcaProbe
}

// ptcaProbe tracks, per core, the interference cycles accounted per stall.
type ptcaProbe struct {
	cpu.NopProbe
	accounted uint64

	// Current stall tracking.
	inStall         bool
	stallCycles     uint64
	stallROBFullCyc uint64
	stallReq        *mem.Request
}

// OnCycles accumulates the current stall's length and ROB-full portion. The
// stall-tracking state machine sees the same snapshot for every cycle of the
// span, so its counters advance by the span length in one step.
func (p *ptcaProbe) OnCycles(s *cpu.CycleState, cycles uint64) {
	if !s.HeadIsLoad || s.HeadReq == nil {
		p.closeStall()
		return
	}
	// Stalled on an SMS load.
	if !p.inStall || p.stallReq != s.HeadReq {
		p.closeStall()
		p.inStall = true
		p.stallReq = s.HeadReq
	}
	p.stallCycles += cycles
	if s.ROBFull {
		p.stallROBFullCyc += cycles
	}
}

// OnCommitResume closes the stall when commit resumes. The core reports no
// committing cycle, so this is where a stall on an SMS load ends: the load is
// an L1 miss, so commit reports it as the stalled-on head before it retires.
func (p *ptcaProbe) OnCommitResume(uint64, bool, uint64) { p.closeStall() }

// closeStall finalizes the previous stall: the accounted interference is the
// request's interference latency, capped by both the stall length and the
// cycles the ROB was actually full.
func (p *ptcaProbe) closeStall() {
	if !p.inStall {
		return
	}
	interference := p.stallReq.TotalInterference()
	accounted := interference
	if accounted > p.stallCycles {
		accounted = p.stallCycles
	}
	if accounted > p.stallROBFullCyc {
		accounted = p.stallROBFullCyc
	}
	p.accounted += accounted
	p.inStall = false
	p.stallCycles = 0
	p.stallROBFullCyc = 0
	p.stallReq = nil
}

// NewPTCA creates a PTCA accountant.
func NewPTCA(cores int) (*PTCA, error) {
	if cores < 1 {
		return nil, fmt.Errorf("accounting: need at least one core")
	}
	a := &PTCA{}
	for c := 0; c < cores; c++ {
		a.probes = append(a.probes, &ptcaProbe{})
	}
	return a, nil
}

// Name implements Accountant.
func (a *PTCA) Name() string { return "PTCA" }

// Probe implements Accountant.
func (a *PTCA) Probe(core int) cpu.Probe { return a.probes[core] }

// ObserveRequest implements Accountant (per-request interference is read
// directly from the head request during stalls).
func (a *PTCA) ObserveRequest(int, *mem.Request) {}

// Tick implements Accountant (transparent technique).
func (a *PTCA) Tick(uint64) {}

// NextEvent implements Accountant: PTCA's Tick never acts, so it contributes
// no events to the fast-forwarding schedule.
func (a *PTCA) NextEvent(uint64) uint64 { return NoEvent }

// Estimate implements Accountant.
func (a *PTCA) Estimate(core int, interval cpu.Stats) Estimate {
	p := a.probes[core]
	p.closeStall()
	accounted := p.accounted
	if accounted > interval.Cycles {
		accounted = interval.Cycles
	}
	privateCycles := float64(interval.Cycles - accounted)
	cpi, ipc := cpiFromCycles(privateCycles, interval)
	return Estimate{
		PrivateCPI:     cpi,
		PrivateIPC:     ipc,
		SMSStallCycles: stallEstimateFromCycles(privateCycles, interval),
	}
}

// EndInterval implements Accountant.
func (a *PTCA) EndInterval() {
	for _, p := range a.probes {
		p.accounted = 0
	}
}
