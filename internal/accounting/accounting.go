// Package accounting defines the common interface of performance-accounting
// techniques and implements the techniques evaluated in the GDP paper:
//
//   - GDP and GDP-O (dataflow accounting, adapters over internal/core),
//   - ITCA and PTCA (transparent, architecture-centric baselines), and
//   - ASM (the invasive Application Slowdown Model baseline, which manipulates
//     memory-controller priorities).
//
// An accountant estimates, at every measurement interval, the private-mode
// (interference-free) performance of each running application from shared-mode
// observations only.
package accounting

import (
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// NoEvent is returned by an accountant's NextEvent when its Tick never needs
// to run at any particular cycle (transparent techniques). The simulation
// driver treats it as "no constraint on fast-forwarding".
const NoEvent = uint64(math.MaxUint64)

// EventSource is implemented by accountants whose Tick must run at specific
// cycles (invasive techniques such as ASM, whose epoch schedule reprograms
// the memory controller). NextEvent returns a lower bound, strictly after
// now, on the next cycle the accountant's Tick needs to observe; the event
// fast-forwarding driver never skips past it, and holds on to the bound until
// that cycle, so only the Tick there may move it. Accountants that do not
// implement EventSource disable fast-forwarding entirely (their Tick is
// then called every cycle, which is always correct).
type EventSource interface {
	NextEvent(now uint64) uint64
}

// Estimate is one per-core, per-interval private-mode performance estimate.
type Estimate struct {
	// PrivateCPI and PrivateIPC are the estimated interference-free CPI/IPC.
	PrivateCPI float64
	PrivateIPC float64
	// SMSStallCycles is the estimated number of private-mode stall cycles due
	// to shared-memory-system loads in the interval (Figure 3b's quantity).
	SMSStallCycles float64
	// PrivateLatency is the λ̂ estimate used (0 for techniques that do not
	// estimate memory latency explicitly).
	PrivateLatency float64
	// CPL is the dataflow critical path length (GDP/GDP-O only).
	CPL uint64
	// AvgOverlap is the commit/load overlap estimate (GDP-O only).
	AvgOverlap float64
}

// Accountant is a performance-accounting technique instantiated for one
// simulated CMP (one instance covers all cores).
type Accountant interface {
	// Name returns the technique's name as used in the paper's figures.
	Name() string
	// Probe returns the per-core hardware probe to attach to the core model,
	// or nil if the technique does not need one.
	Probe(core int) cpu.Probe
	// ObserveRequest is called for every completed shared-memory request.
	ObserveRequest(core int, req *mem.Request)
	// Tick is called once per simulated cycle (used by invasive techniques
	// such as ASM to drive their epoch schedule). Most techniques ignore it.
	Tick(now uint64)
	// Estimate produces the private-mode estimate for one core given the
	// interval's shared-mode statistics.
	Estimate(core int, interval cpu.Stats) Estimate
	// EndInterval resets per-interval state after all cores were estimated.
	EndInterval()
}

// Names lists the techniques New builds, in the order the paper's figures
// compare them.
var Names = []string{"ITCA", "PTCA", "ASM", "GDP", "GDP-O"}

// New instantiates the named technique for a CMP with cores cores. GDP and
// GDP-O use a prbEntries-entry Pending Request Buffer; ASM rotates its
// high-priority epoch every asmEpoch cycles (0 selects NewASM's default) and
// is bound to the memory controller by the simulation driver.
func New(name string, cores, prbEntries int, asmEpoch uint64) (Accountant, error) {
	switch name {
	case "GDP":
		return NewGDP(cores, prbEntries, false)
	case "GDP-O":
		return NewGDP(cores, prbEntries, true)
	case "ITCA":
		return NewITCA(cores)
	case "PTCA":
		return NewPTCA(cores)
	case "ASM":
		return NewASM(cores, asmEpoch, nil)
	default:
		return nil, fmt.Errorf("accounting: unknown technique %q (want one of %v)", name, Names)
	}
}

// stallEstimateFromCycles converts an estimated number of private-mode cycles
// into an estimated number of private-mode SMS stall cycles using the
// performance model of Equation 2: everything that is not commit, independent
// stall, PMS stall or other stall must be SMS stall.
func stallEstimateFromCycles(privateCycles float64, interval cpu.Stats) float64 {
	base := float64(interval.CommitCycles + interval.StallInd + interval.StallPMS + interval.StallOther)
	est := privateCycles - base
	if est < 0 {
		return 0
	}
	return est
}

// cpiFromCycles converts a private-cycle estimate into CPI/IPC.
func cpiFromCycles(privateCycles float64, interval cpu.Stats) (cpi, ipc float64) {
	if interval.Instructions == 0 || privateCycles <= 0 {
		return 0, 0
	}
	cpi = privateCycles / float64(interval.Instructions)
	return cpi, 1 / cpi
}
