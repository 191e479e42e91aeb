// Package accounting defines the common interface of performance-accounting
// techniques and implements the techniques evaluated in the GDP paper:
//
//   - GDP and GDP-O (dataflow accounting: internal/core's CPL and overlap
//     with DIEF's latency estimate, fed forward through Equation 2),
//   - ITCA and PTCA (transparent, architecture-centric baselines), and
//   - ASM (the invasive Application Slowdown Model baseline, which manipulates
//     memory-controller priorities).
//
// An accountant estimates, at every measurement interval, the private-mode
// (interference-free) performance of each running application from shared-mode
// observations only. Every technique ends in Equation 2 of the paper
// (privateCycles): GDP and GDP-O evaluate it forward, the other three invert
// it to derive their SMS stall estimate.
package accounting

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
)

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
// is bound to the memory controller by the simulation driver. The instance is
// named after its technique, and the accountants of one run must have
// different names (sim.Run rejects a run that repeats one).
func New(name string, cores, prbEntries int, asmEpoch uint64) (Accountant, error) {
	switch name {
	case "GDP", "GDP-O":
		return NewGDP(name, cores, prbEntries, name == "GDP-O")
	case "ITCA":
		return NewITCA(cores)
	case "PTCA":
		return NewPTCA(cores)
	case "ASM":
		return NewASM(cores, asmEpoch)
	default:
		return nil, fmt.Errorf("accounting: unknown technique %q (want one of %v)", name, Names)
	}
}

// privateCycles is Equation 2 of the paper, the performance model shared by
// every technique: private cycles = C + S^Ind + S^PMS + σ̂^SMS + σ̂^Other,
// where C, S^Ind and S^PMS are measured in shared mode and the two stall
// terms are estimates of their private-mode values.
func privateCycles(interval cpu.Stats, smsStall, otherStall float64) float64 {
	return float64(interval.CommitCycles) +
		float64(interval.StallInd) +
		float64(interval.StallPMS) +
		smsStall +
		otherStall
}

// gdpEstimate evaluates Equation 2 forward for GDP, or for GDP-O when
// useOverlap is set. cpl and avgOverlap come from the dataflow unit's
// Retrieve and privateLatency is DIEF's estimate λ̂ of the interference-free
// SMS load latency.
func gdpEstimate(interval cpu.Stats, cpl uint64, avgOverlap, privateLatency float64, useOverlap bool) Estimate {
	// σ̂^SMS: the critical path of the load/commit dependency graph times the
	// private-mode latency (minus the overlap for GDP-O).
	effectiveLatency := privateLatency
	if useOverlap {
		effectiveLatency -= avgOverlap
	}
	if effectiveLatency < 0 {
		effectiveLatency = 0
	}
	// Each product is rounded by its float64 conversion, which keeps arm64
	// from fusing it into Equation 2's sum (make fma-check).
	smsStall := float64(float64(cpl) * effectiveLatency)

	// σ̂^Other: the rare other stalls scale with the latency reduction between
	// the shared and private modes (Section III).
	scale := 1.0
	if shared := interval.AvgSMSLatency(); shared > 0 && privateLatency > 0 && privateLatency < shared {
		scale = privateLatency / shared
	}
	otherStall := float64(float64(interval.StallOther) * scale)

	cpi, ipc := cpiFromCycles(privateCycles(interval, smsStall, otherStall), interval)
	return Estimate{
		PrivateCPI:     cpi,
		PrivateIPC:     ipc,
		SMSStallCycles: smsStall,
		PrivateLatency: privateLatency,
		CPL:            cpl,
		AvgOverlap:     avgOverlap,
	}
}

// stallEstimateFromCycles inverts Equation 2 for a technique that estimates
// private cycles directly: keeping the measured S^Other, everything that is
// not commit, independent stall, PMS stall or other stall must be SMS stall.
func stallEstimateFromCycles(cycles float64, interval cpu.Stats) float64 {
	est := cycles - privateCycles(interval, 0, float64(interval.StallOther))
	if est < 0 {
		return 0
	}
	return est
}

// cpiFromCycles converts a private-cycle estimate into CPI/IPC.
func cpiFromCycles(cycles float64, interval cpu.Stats) (cpi, ipc float64) {
	if interval.Instructions == 0 || cycles <= 0 {
		return 0, 0
	}
	cpi = cycles / float64(interval.Instructions)
	return cpi, 1 / cpi
}
