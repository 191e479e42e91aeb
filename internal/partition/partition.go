// Package partition implements the last-level-cache management policies the
// paper evaluates: the unpartitioned LRU baseline, Utility-based Cache
// Partitioning (UCP, miss-minimizing lookahead), and Model-based Cache
// Partitioning (MCP / MCP-O), the paper's policy that selects way allocations
// by maximizing an online estimate of system throughput built from private-
// mode performance estimates (Equations 4-7).
package partition

import (
	"fmt"

	"repro/internal/cpu"
)

// CoreSnapshot is the per-core information available to a policy at a
// repartitioning decision point.
type CoreSnapshot struct {
	// MissCurve[w] is the estimated number of LLC misses the core would incur
	// in the elapsed interval with w ways (from its ATD).
	MissCurve []uint64
	// Interval is the core's shared-mode statistics for the elapsed interval.
	Interval cpu.Stats
	// PrivateCPI is the accountant's private-mode CPI estimate for the core.
	PrivateCPI float64
}

// Decision is the outcome of a repartitioning step.
type Decision struct {
	// Allocation[i] is the number of LLC ways granted to core i. A nil
	// allocation means "do not partition" (plain LRU sharing).
	Allocation []int
}

// Policy selects LLC way allocations at repartitioning intervals.
type Policy interface {
	// Name returns the policy name as used in the paper's figures.
	Name() string
	// Decide computes the allocation for the next interval. totalWays is the
	// LLC associativity.
	Decide(snapshots []CoreSnapshot, totalWays int) Decision
}

// LRU is the unmanaged baseline: the LLC is shared freely under LRU.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "LRU" }

// Decide implements Policy: never partition.
func (LRU) Decide([]CoreSnapshot, int) Decision { return Decision{} }

// validate checks the snapshot set against the way budget.
func validate(snapshots []CoreSnapshot, totalWays int) error {
	if len(snapshots) == 0 {
		return fmt.Errorf("partition: no cores")
	}
	if totalWays < len(snapshots) {
		return fmt.Errorf("partition: %d ways cannot give every one of %d cores a way", totalWays, len(snapshots))
	}
	return nil
}

// missesAt returns the miss count of a curve at w ways, clamping the index.
func missesAt(curve []uint64, w int) uint64 {
	if len(curve) == 0 {
		return 0
	}
	if w < 0 {
		w = 0
	}
	if w >= len(curve) {
		w = len(curve) - 1
	}
	return curve[w]
}

// lookahead runs Qureshi's lookahead allocation: starting from one way per
// core, repeatedly grant the block of ways with the highest marginal utility
// per way, where utility(core, from, to) is supplied by the caller.
func lookahead(cores, totalWays int, utility func(core, from, to int) float64) []int {
	alloc := make([]int, cores)
	for i := range alloc {
		alloc[i] = 1
	}
	remaining := totalWays - cores
	for remaining > 0 {
		bestCore, bestWays := -1, 0
		bestRate := 0.0
		for c := 0; c < cores; c++ {
			for extra := 1; extra <= remaining; extra++ {
				u := utility(c, alloc[c], alloc[c]+extra)
				rate := u / float64(extra)
				if rate > bestRate {
					bestRate, bestCore, bestWays = rate, c, extra
				}
			}
		}
		if bestCore < 0 {
			// No positive utility anywhere: spread the remaining ways evenly.
			for c := 0; remaining > 0; c = (c + 1) % cores {
				alloc[c]++
				remaining--
			}
			break
		}
		alloc[bestCore] += bestWays
		remaining -= bestWays
	}
	return alloc
}

// UCP is Utility-based Cache Partitioning: the lookahead algorithm with the
// miss reduction as the utility function.
type UCP struct{}

// Name implements Policy.
func (UCP) Name() string { return "UCP" }

// Decide implements Policy.
func (UCP) Decide(snapshots []CoreSnapshot, totalWays int) Decision {
	if err := validate(snapshots, totalWays); err != nil {
		return Decision{}
	}
	alloc := lookahead(len(snapshots), totalWays, func(core, from, to int) float64 {
		curve := snapshots[core].MissCurve
		gain := float64(missesAt(curve, from)) - float64(missesAt(curve, to))
		if gain < 0 {
			return 0
		}
		return gain
	})
	return Decision{Allocation: alloc}
}

// MCP is Model-based Cache Partitioning (the paper's Section V). It combines
// each core's ATD miss curve with a first-order performance model and the
// accountant's private-mode CPI estimate to pick the allocation maximizing
// estimated system throughput (Equation 7). The accountant providing
// PrivateCPI distinguishes MCP (GDP), MCP-O (GDP-O) and ASM-driven
// partitioning (ASM).
type MCP struct {
	// PolicyName lets callers distinguish MCP, MCP-O and ASM partitioning in
	// reports. Defaults to "MCP".
	PolicyName string
}

// Name implements Policy.
func (m MCP) Name() string {
	if m.PolicyName == "" {
		return "MCP"
	}
	return m.PolicyName
}

// model holds the per-core Equation 4-6 terms.
type model struct {
	preLLCCPI float64 // P^PreLLC: CPI with an infinite LLC
	gradient  float64 // g: CPI increase per additional LLC miss
	privCPI   float64 // π̂: private-mode CPI estimate
	valid     bool
}

// buildModel derives the per-core performance model from the snapshot.
func buildModel(s CoreSnapshot) model {
	iv := s.Interval
	if iv.Instructions == 0 {
		return model{}
	}
	inst := float64(iv.Instructions)

	// Equation 5 approximations: CPL ≈ S^SMS / L^SMS and the measured average
	// pre-LLC latency.
	var cplEst float64
	if iv.SMSLoads > 0 && iv.AvgSMSLatency() > 0 {
		cplEst = float64(iv.StallSMS) / iv.AvgSMSLatency()
	}
	var preLLCLat float64
	if iv.SMSLoads > 0 {
		preLLCLat = float64(iv.PreLLCLatSum) / float64(iv.SMSLoads)
	}
	nonSMSStall := float64(iv.StallInd + iv.StallPMS + iv.StallOther)
	preLLCCPI := (float64(iv.CommitCycles) + nonSMSStall + float64(cplEst*preLLCLat)) / inst // rounded, not fused (make fma-check)

	// Equation 6: the CPI gradient per additional LLC miss uses the average
	// post-LLC (memory controller and bus) latency.
	var postLLCLat float64
	if iv.LLCMisses > 0 {
		postLLCLat = float64(iv.PostLLCLatSum) / float64(iv.LLCMisses)
	}
	gradient := 0.0
	if iv.LLCMisses > 0 {
		gradient = cplEst * postLLCLat / inst / float64(iv.LLCMisses)
	}

	priv := s.PrivateCPI
	if priv <= 0 {
		priv = iv.CPI()
	}
	return model{preLLCCPI: preLLCCPI, gradient: gradient, privCPI: priv, valid: true}
}

// stpTerm evaluates one core's contribution to Equation 7 for a given number
// of allocated ways.
func stpTerm(m model, s CoreSnapshot, ways int) float64 {
	if !m.valid {
		return 0
	}
	misses := float64(missesAt(s.MissCurve, ways))
	sharedCPI := m.preLLCCPI + float64(m.gradient*misses) // rounded, not fused (make fma-check)
	if sharedCPI <= 0 {
		return 0
	}
	return m.privCPI / sharedCPI
}

// Decide implements Policy: lookahead with ΔSTP as the utility function.
func (m MCP) Decide(snapshots []CoreSnapshot, totalWays int) Decision {
	if err := validate(snapshots, totalWays); err != nil {
		return Decision{}
	}
	models := make([]model, len(snapshots))
	for i, s := range snapshots {
		models[i] = buildModel(s)
	}
	alloc := lookahead(len(snapshots), totalWays, func(core, from, to int) float64 {
		gain := stpTerm(models[core], snapshots[core], to) - stpTerm(models[core], snapshots[core], from)
		if gain < 0 {
			return 0
		}
		return gain
	})
	return Decision{Allocation: alloc}
}

// EstimateSTP evaluates Equation 7 for a full allocation (exported for the
// experiment harness and for diagnostics).
func EstimateSTP(snapshots []CoreSnapshot, alloc []int) float64 {
	total := 0.0
	for i, s := range snapshots {
		m := buildModel(s)
		w := 0
		if i < len(alloc) {
			w = alloc[i]
		}
		total += stpTerm(m, s, w)
	}
	return total
}
