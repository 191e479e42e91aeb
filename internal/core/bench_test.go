package core

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
)

// BenchmarkDataflowUnit measures the per-event cost of the GDP-O hardware
// model itself (Algorithms 1-3), independent of the rest of the simulator.
// One op is an event group: issue, one committing cycle, stall, completion
// and resume. The PRB sizes are the paper's 32 entries and the private
// reference's 4096, so the ratio of the two shows whether any per-event or
// per-cycle work still grows with the buffer.
func BenchmarkDataflowUnit(b *testing.B) {
	for _, n := range []int{32, 4096} {
		b.Run(fmt.Sprintf("prb=%d", n), func(b *testing.B) {
			unit, err := New(Options{PRBEntries: n, TrackOverlap: true})
			if err != nil {
				b.Fatal(err)
			}
			committing := cpu.CycleState{Committing: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := uint64(0x1000 + (i%32)*64)
				cycle := uint64(i * 10)
				unit.OnLoadIssued(addr, cycle)
				unit.OnCycles(&committing, 1)
				unit.OnCommitStall(addr, true, cycle+1)
				unit.OnLoadCompleted(addr, true, cycle+5, 200, 20)
				unit.OnCommitResume(addr, true, cycle+6)
			}
			if unit.CPL() == 0 {
				b.Fatal("unit made no progress")
			}
		})
	}
}
