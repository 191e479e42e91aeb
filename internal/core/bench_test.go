package core

import "testing"

// BenchmarkDataflowUnit measures the per-event cost of the GDP-O hardware
// model itself (Algorithms 1-3), independent of the rest of the simulator.
func BenchmarkDataflowUnit(b *testing.B) {
	unit, err := New(Options{PRBEntries: 32, TrackOverlap: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(0x1000 + (i%32)*64)
		cycle := uint64(i * 10)
		unit.OnLoadIssued(addr, cycle)
		unit.OnCommitStall(addr, true, cycle+1)
		unit.OnLoadCompleted(addr, true, cycle+5, 200, 20)
		unit.OnCommitResume(addr, true, cycle+6)
	}
	if unit.CPL() == 0 {
		b.Fatal("unit made no progress")
	}
}
