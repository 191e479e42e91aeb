package cpu

import "testing"

// nopStallProbe is a StallProbe that ignores every event.
type nopStallProbe struct{ NopProbe }

func (nopStallProbe) OnCycles(*CycleState, uint64) {}

// BenchmarkCoreTick times Core.Tick alone — every cycle ticked, one no-op
// stall probe so the snapshot of every stall cycle is built, a fixed-latency
// memory — on the ledger's dense and sparse scenarios. One b.N iteration is one cycle, so
// ns/op is ns/cycle (also reported under that name); `make bench-cpu` runs it
// with a CPU profile.
func BenchmarkCoreTick(b *testing.B) {
	for _, scenario := range []string{"compute-heavy", "latency-bound"} {
		b.Run(scenario, func(b *testing.B) {
			fm := &fakeMem{latency: 200}
			core := newTestCore(b, scenarioParams(b, scenario, 0), fm)
			core.AttachProbe(nopStallProbe{})
			run(core, fm, 0, 20000) // warm the caches, pools and slices
			b.ReportAllocs()
			b.ResetTimer()
			run(core, fm, 20000, 20000+uint64(b.N))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
		})
	}
}
