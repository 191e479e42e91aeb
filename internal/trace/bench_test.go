package trace_test

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// sink keeps the benchmarked instructions live.
var sink trace.Instruction

// BenchmarkGeneratorNext times Generator.Next alone on the first profile of
// the ledger's dense and sparse scenarios. One b.N iteration is one
// instruction, so ns/op is ns per instruction (also reported under that
// name); `make bench-cpu` runs it with a CPU profile.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, scenario := range []string{"compute-heavy", "latency-bound"} {
		b.Run(scenario, func(b *testing.B) {
			sc, err := workload.ScenarioByName(scenario)
			if err != nil {
				b.Fatal(err)
			}
			wl, err := sc.Workload(1)
			if err != nil {
				b.Fatal(err)
			}
			gen, err := trace.NewGenerator(wl.Benchmarks[0].Params, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				sink = gen.Next()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/instr")
		})
	}
}
