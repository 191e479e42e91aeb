package accounting_test

import (
	"math"
	"testing"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestEquation2HoldsForEveryTechnique checks, for every interval of the
// benchmark ledger's dense (compute-heavy) and sparse (latency-bound,
// pointer-chase, cache-thrash, bandwidth-bound) scenarios, that each
// technique's estimate is an instance of Equation 2: PrivateCPI ×
// Instructions equals C + S^Ind + S^PMS plus the technique's stall terms.
// GDP and GDP-O estimate both stall terms (σ̂^SMS and σ̂^Other, the measured
// S^Other scaled by λ̂ over the shared SMS latency); ITCA, PTCA and ASM keep
// the measured S^Other and derive σ̂^SMS, so for them the identity holds
// wherever σ̂^SMS was not clamped at zero.
func TestEquation2HoldsForEveryTechnique(t *testing.T) {
	const cores = 4
	for _, name := range []string{"compute-heavy", "latency-bound", "pointer-chase", "cache-thrash", "bandwidth-bound"} {
		t.Run(name, func(t *testing.T) {
			sc, err := workload.ScenarioByName(name)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := sc.Workload(cores)
			if err != nil {
				t.Fatal(err)
			}
			var accts []accounting.Accountant
			for _, tech := range accounting.Names {
				a, err := accounting.New(tech, cores, 32, 0)
				if err != nil {
					t.Fatal(err)
				}
				accts = append(accts, a)
			}
			res, err := sim.Run(t.Context(), sim.Options{
				Config:              config.ScaledConfig(cores),
				Workload:            wl,
				InstructionsPerCore: 4000,
				IntervalCycles:      2500,
				Seed:                1,
				Accountants:         accts,
			})
			if err != nil {
				t.Fatal(err)
			}
			checked := map[string]int{}
			for _, recs := range res.Intervals {
				for _, rec := range recs {
					iv := rec.Shared
					if iv.Instructions == 0 {
						continue
					}
					for tech, est := range rec.Estimates {
						want := float64(iv.CommitCycles) + float64(iv.StallInd) + float64(iv.StallPMS) + est.SMSStallCycles
						switch tech {
						case "GDP", "GDP-O":
							want += float64(iv.StallOther) * otherStallScale(iv, est.PrivateLatency)
						default:
							if est.SMSStallCycles <= 0 {
								continue
							}
							want += float64(iv.StallOther)
						}
						got := est.PrivateCPI * float64(iv.Instructions)
						if math.Abs(got-want) > 1e-9*math.Abs(want) {
							t.Fatalf("core %d interval ending at %d instructions: %s PrivateCPI × Instructions = %v, Equation 2 gives %v",
								rec.Core, rec.EndInstructions, tech, got, want)
						}
						checked[tech]++
					}
				}
			}
			for _, tech := range accounting.Names {
				if checked[tech] == 0 {
					t.Errorf("%s: no interval checked", tech)
				}
			}
		})
	}
}

// otherStallScale is Section III's σ̂^Other factor: λ̂ over the measured
// shared-mode SMS latency when that is a reduction, else 1.
func otherStallScale(iv cpu.Stats, privateLatency float64) float64 {
	if shared := iv.AvgSMSLatency(); shared > 0 && privateLatency > 0 && privateLatency < shared {
		return privateLatency / shared
	}
	return 1
}
