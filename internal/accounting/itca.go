package accounting

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// ITCA implements Inter-Task Conflict-Aware accounting (Luque et al.), the
// transparent architecture-centric baseline of the paper. ITCA starts from
// the measured shared-mode cycles and subtracts the cycles in which one of
// its pre-defined interference conditions holds:
//
//	(i)   commit is stalled with an inter-thread (interference-induced) miss at
//	      the head of the ROB,
//	(ii)  every outstanding MSHR holds an inter-thread miss, or
//	(iii) the ROB is empty due to an inter-thread instruction miss (not
//	      modeled here: the core has a perfect instruction cache).
//
// These conditions capture only part of the interference, so ITCA tends to be
// conservative (it overestimates private-mode cycles when interference is
// substantial), which is the behaviour the paper reports.
type ITCA struct {
	probes []*itcaProbe
}

// itcaProbe is the per-core condition monitor.
type itcaProbe struct {
	cpu.NopProbe
	interferenceCycles uint64
}

// OnCycles evaluates ITCA's conditions once for the stall span: the snapshot
// is constant over it, so the matching counter advances by the span length.
// Every condition is a stall condition, so committing cycles, which the core
// does not report, would never match.
func (p *itcaProbe) OnCycles(s *cpu.CycleState, cycles uint64) {
	// Condition (i): stalled with an interference miss at the head of the ROB.
	if s.HeadIsLoad && s.HeadReq != nil && s.HeadReq.InterferenceMiss {
		p.interferenceCycles += cycles
		return
	}
	// Condition (ii): all outstanding SMS loads are interference misses.
	if s.PendingSMSLoads > 0 && s.PendingInterferenceMisses == s.PendingSMSLoads {
		p.interferenceCycles += cycles
	}
}

// NewITCA creates an ITCA accountant for the given number of cores.
func NewITCA(cores int) (*ITCA, error) {
	if cores < 1 {
		return nil, fmt.Errorf("accounting: need at least one core")
	}
	a := &ITCA{}
	for c := 0; c < cores; c++ {
		a.probes = append(a.probes, &itcaProbe{})
	}
	return a, nil
}

// Name implements Accountant.
func (a *ITCA) Name() string { return "ITCA" }

// Probe implements Accountant.
func (a *ITCA) Probe(core int) cpu.Probe { return a.probes[core] }

// ObserveRequest implements Accountant (ITCA does not use completed requests).
func (a *ITCA) ObserveRequest(int, *mem.Request) {}

// Tick implements Accountant (transparent technique).
func (a *ITCA) Tick(uint64) {}

// NextEvent implements Accountant: ITCA's Tick never acts, so it contributes
// no events to the fast-forwarding schedule.
func (a *ITCA) NextEvent(uint64) uint64 { return NoEvent }

// Estimate implements Accountant: private cycles = shared cycles minus the
// cycles matching ITCA's interference conditions.
func (a *ITCA) Estimate(core int, interval cpu.Stats) Estimate {
	p := a.probes[core]
	accounted := p.interferenceCycles
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
func (a *ITCA) EndInterval() {
	for _, p := range a.probes {
		p.interferenceCycles = 0
	}
}
