package workload

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Scenario is a named workload pattern beyond the paper's H/M/L mixes. Where
// the mix generator draws benchmarks at random from the sensitivity classes,
// a scenario deterministically assembles a multi-programmed workload from
// purpose-built trace profiles (streaming, pointer chasing, store bursts,
// phase changes, ...), so the same scenario name always denotes the same
// workload shape at any core count. Scenarios are the registry behind
// Engine.RunScenario, the service's GET /v1/scenarios endpoint and
// `gdpsim sweep -scenario`.
type Scenario struct {
	// Name is the registry key (lower-case, hyphenated).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Class is the nominal LLC-sensitivity class the scenario's profiles were
	// designed to land in (informational; scenarios are not part of the
	// paper's class populations).
	Class Class
	// profile returns the trace parameters of the benchmark on core slot.
	// Slots differ slightly so multi-core scenario workloads are heterogeneous
	// like real consolidations, while staying fully deterministic.
	profile func(slot int) trace.Params
}

// Params returns the trace parameters of the scenario's benchmark on the
// given core slot.
func (s Scenario) Params(slot int) trace.Params { return s.profile(slot) }

// Workload assembles the scenario's multi-programmed workload for a core
// count. The result is deterministic: no randomness is involved, only the
// per-slot profile variations.
func (s Scenario) Workload(cores int) (Workload, error) {
	if cores < 1 {
		return Workload{}, fmt.Errorf("workload: scenario %s: core count %d invalid", s.Name, cores)
	}
	w := Workload{ID: fmt.Sprintf("%dc-scenario-%s", cores, s.Name)}
	for slot := 0; slot < cores; slot++ {
		p := s.profile(slot)
		if err := p.Validate(); err != nil {
			return Workload{}, fmt.Errorf("workload: scenario %s slot %d: %w", s.Name, slot, err)
		}
		w.Benchmarks = append(w.Benchmarks, Benchmark{
			Name:   fmt.Sprintf("%s.%d", s.Name, slot),
			Suite:  "scenario",
			Class:  s.Class,
			Params: p,
		})
	}
	return w, nil
}

// UnknownScenarioError reports a scenario name that is not in the registry.
// The service layer maps it to HTTP 400.
type UnknownScenarioError struct{ Name string }

func (e *UnknownScenarioError) Error() string {
	return fmt.Sprintf("workload: unknown scenario %q (want one of %s)",
		e.Name, strings.Join(ScenarioNames(), ", "))
}

// scenarioRegistry holds the built-in scenarios, ordered by name (see init).
var scenarioRegistry = []Scenario{
	{
		Name:        "streaming",
		Description: "sequential walks over a memory-sized array; bandwidth hungry but LLC-insensitive",
		Class:       LowSensitivity,
		profile: func(slot int) trace.Params {
			p := trace.Params{
				LoadFrac:        0.30,
				StoreFrac:       0.10,
				FPFrac:          0.25,
				FPMulFrac:       0.2,
				IntMulFrac:      0.02,
				BranchFrac:      0.08,
				MispredictRate:  0.01,
				LoadDepFrac:     0.02,
				DepDistanceMean: 6,
				WorkingSets: []trace.WorkingSet{
					{Bytes: wsL1, AccessProb: 0.35},
					{Bytes: wsMem, AccessProb: 0.65, Sequential: true, Stride: 64},
				},
			}
			if slot%2 == 1 { // alternate slots stream with a longer stride
				p.WorkingSets[1].Stride = 128
			}
			return p
		},
	},
	{
		Name:        "pointer-chase",
		Description: "dependent loads over an LLC-sized pool; long dataflow critical path, minimal MLP",
		Class:       HighSensitivity,
		profile: func(slot int) trace.Params {
			p := trace.Params{
				LoadFrac:        0.32,
				StoreFrac:       0.04,
				FPFrac:          0.05,
				FPMulFrac:       0.1,
				IntMulFrac:      0.02,
				BranchFrac:      0.12,
				MispredictRate:  0.04,
				LoadDepFrac:     0.85,
				DepDistanceMean: 3,
				WorkingSets: []trace.WorkingSet{
					{Bytes: wsL1, AccessProb: 0.30},
					{Bytes: wsLLC, AccessProb: 0.60},
					{Bytes: wsMem, AccessProb: 0.10},
				},
			}
			if slot%2 == 1 { // deeper chains on alternate slots
				p.LoadDepFrac = 0.7
				p.WorkingSets[1].Bytes = wsLLCBig
			}
			return p
		},
	},
	{
		Name:        "bursty",
		Description: "store bursts separated by quiet compute stretches (facerec-style write storms)",
		Class:       MediumSensitivity,
		profile: func(slot int) trace.Params {
			return trace.Params{
				LoadFrac:        0.18,
				StoreFrac:       0.06,
				FPFrac:          0.3,
				FPMulFrac:       0.25,
				IntMulFrac:      0.03,
				BranchFrac:      0.1,
				MispredictRate:  0.02,
				LoadDepFrac:     0.2,
				DepDistanceMean: 4,
				StoreBurstLen:   32 + 8*(slot%3),
				StoreBurstGap:   500 + 150*(slot%3),
				WorkingSets: []trace.WorkingSet{
					{Bytes: wsL1, AccessProb: 0.55},
					{Bytes: wsLLC / 2, AccessProb: 0.35},
					{Bytes: wsMem, AccessProb: 0.10, Sequential: true, Stride: 64},
				},
			}
		},
	},
	{
		Name:        "phased",
		Description: "alternating memory-bound and compute-bound phases; stresses interval attribution",
		Class:       MediumSensitivity,
		profile: func(slot int) trace.Params {
			return trace.Params{
				LoadFrac:          0.26,
				StoreFrac:         0.08,
				FPFrac:            0.35,
				FPMulFrac:         0.3,
				IntMulFrac:        0.03,
				BranchFrac:        0.1,
				MispredictRate:    0.02,
				LoadDepFrac:       0.25,
				DepDistanceMean:   4,
				PhaseLength:       2500 + 500*(slot%4), // offset phases across cores
				ComputePhaseScale: 0.1,
				WorkingSets: []trace.WorkingSet{
					{Bytes: wsL1, AccessProb: 0.5},
					{Bytes: wsLLC, AccessProb: 0.4},
					{Bytes: wsMem, AccessProb: 0.1, Sequential: true, Stride: 64},
				},
			}
		},
	},
	{
		Name:        "cache-thrash",
		Description: "random accesses over a working set just beyond the LLC; every core evicts the others",
		Class:       HighSensitivity,
		profile: func(slot int) trace.Params {
			return trace.Params{
				LoadFrac:        0.34,
				StoreFrac:       0.10,
				FPFrac:          0.15,
				FPMulFrac:       0.2,
				IntMulFrac:      0.02,
				BranchFrac:      0.08,
				MispredictRate:  0.02,
				LoadDepFrac:     0.1,
				DepDistanceMean: 5,
				WorkingSets: []trace.WorkingSet{
					{Bytes: wsL1, AccessProb: 0.25},
					{Bytes: wsLLCBig + wsLLCBig/2 + (slot%2)*wsLLC, AccessProb: 0.75},
				},
			}
		},
	},
	{
		Name:        "latency-bound",
		Description: "serialized misses into main memory; runtime dominated by raw access latency",
		Class:       LowSensitivity,
		profile: func(slot int) trace.Params {
			return trace.Params{
				LoadFrac:        0.30,
				StoreFrac:       0.05,
				FPFrac:          0.1,
				FPMulFrac:       0.1,
				IntMulFrac:      0.02,
				BranchFrac:      0.1,
				MispredictRate:  0.03,
				LoadDepFrac:     0.9,
				DepDistanceMean: 2 + float64(slot%2),
				WorkingSets: []trace.WorkingSet{
					{Bytes: wsL1, AccessProb: 0.2},
					{Bytes: wsMem, AccessProb: 0.8},
				},
			}
		},
	},
	{
		Name:        "bandwidth-bound",
		Description: "independent streaming loads saturating the memory controller (libquantum-style)",
		Class:       LowSensitivity,
		profile: func(slot int) trace.Params {
			p := trace.Params{
				LoadFrac:        0.38,
				StoreFrac:       0.08,
				FPFrac:          0.15,
				FPMulFrac:       0.2,
				IntMulFrac:      0.02,
				BranchFrac:      0.06,
				MispredictRate:  0.01,
				LoadDepFrac:     0.0,
				DepDistanceMean: 8,
				WorkingSets: []trace.WorkingSet{
					{Bytes: wsL1, AccessProb: 0.3},
					{Bytes: wsMem, AccessProb: 0.7, Sequential: true, Stride: 64},
				},
			}
			if slot%3 == 2 { // every third slot mixes in stores to the stream
				p.StoreFrac = 0.14
				p.LoadFrac = 0.32
			}
			return p
		},
	},
	{
		Name:        "compute-heavy",
		Description: "FP-dominated kernels fitting in the private caches; near-zero SMS traffic",
		Class:       LowSensitivity,
		profile: func(slot int) trace.Params {
			return trace.Params{
				LoadFrac:        0.10,
				StoreFrac:       0.04,
				FPFrac:          0.6,
				FPMulFrac:       0.45 + 0.05*float64(slot%3),
				IntMulFrac:      0.05,
				BranchFrac:      0.08,
				MispredictRate:  0.01,
				LoadDepFrac:     0.15,
				DepDistanceMean: 3,
				WorkingSets: []trace.WorkingSet{
					{Bytes: wsL1, AccessProb: 0.85},
					{Bytes: wsL2, AccessProb: 0.15},
				},
			}
		},
	},
}

func init() {
	sort.Slice(scenarioRegistry, func(i, j int) bool {
		return scenarioRegistry[i].Name < scenarioRegistry[j].Name
	})
}

// Scenarios returns every registered scenario, sorted by name.
func Scenarios() []Scenario {
	out := make([]Scenario, len(scenarioRegistry))
	copy(out, scenarioRegistry)
	return out
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string {
	out := make([]string, len(scenarioRegistry))
	for i, s := range scenarioRegistry {
		out[i] = s.Name
	}
	return out
}

// ScenarioByName returns the named scenario. Unknown names yield an
// *UnknownScenarioError.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range scenarioRegistry {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, &UnknownScenarioError{Name: name}
}
