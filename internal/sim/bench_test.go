package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/workload"
)

// BenchmarkStepLoop times the whole shared-mode step loop — the stepper, the
// memory system with its controller and ring, the four transparent
// accountants (GDP, GDP-O, ITCA, PTCA) and the interval records — on 4 cores
// of the ledger's dense and sparse scenarios, where BenchmarkCoreTick sees the
// core alone. One b.N iteration is one visited cycle, so ns/op is ns per
// visited cycle (also reported under that name, beside the simulated cycles
// one visit covers); the warm loop must report 0 allocs/op. `make bench-cpu`
// runs it with a CPU profile.
func BenchmarkStepLoop(b *testing.B) {
	const cores, interval = 4, 2500
	for _, scenario := range []string{"compute-heavy", "latency-bound"} {
		b.Run(scenario, func(b *testing.B) {
			sc, err := workload.ScenarioByName(scenario)
			if err != nil {
				b.Fatal(err)
			}
			wl, err := sc.Workload(cores)
			if err != nil {
				b.Fatal(err)
			}
			gdp, err1 := accounting.NewGDP(cores, 32, false)
			gdpo, err2 := accounting.NewGDP(cores, 32, true)
			itca, err3 := accounting.NewITCA(cores)
			ptca, err4 := accounting.NewPTCA(cores)
			if err := errors.Join(err1, err2, err3, err4); err != nil {
				b.Fatal(err)
			}
			accts := []accounting.Accountant{gdp, gdpo, itca, ptca}
			st, err := startRun(Options{
				Config:              config.ScaledConfig(cores),
				Workload:            wl,
				InstructionsPerCore: 1 << 40, // never reached: the loop runs for as long as b.N asks
				IntervalCycles:      interval,
				Seed:                7,
				Accountants:         accts,
				DiscardIntervals:    true,
			})
			if err != nil {
				b.Fatal(err)
			}
			never := func(int) uint64 { return math.MaxUint64 }
			clk := st.clk
			clk.start(accts, true, never)
			// visit mirrors runFast's loop for n visited cycles from now.
			visit := func(now uint64, n int) uint64 {
				for range n {
					next := clk.step(now)
					if (now+1)%interval == 0 {
						clk.sync(now + 1)
						if err := st.recordInterval(); err != nil {
							b.Fatal(err)
						}
					}
					boundary := now + interval - (now+1)%interval
					now = max(now+1, min(next, boundary))
				}
				return now
			}
			start := visit(0, 20000) // warm the pools, queues and scratch slices
			b.ReportAllocs()
			b.ResetTimer()
			end := visit(start, b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/visit")
			b.ReportMetric(float64(end-start)/float64(b.N), "cycles/visit")
		})
	}
}
