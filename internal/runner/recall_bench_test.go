package runner_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// recallCells is the cell count of the benchmark ledger's sweep grid.
const recallCells = 38

// BenchmarkDiskRecall prices what a warm -cache-dir restart pays per cell: a
// fresh disk cache over recallCells populated sweep-row entries, and one
// Lookup of each (open, fstat, read, close, frame check, row decode).
func BenchmarkDiskRecall(b *testing.B) {
	dir := b.TempDir()
	c, err := runner.NewDiskCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, recallCells)
	for i := range keys {
		keys[i], err = runner.SpecKey(fmt.Sprintf("recall-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]experiments.SweepRow, 5)
		for j := range rows {
			rows[j] = experiments.SweepRow{Cores: 4, Mix: "H", PRB: 32, Kind: "accuracy",
				Name: fmt.Sprintf("T%d", j), MeanIPCAbsRMS: 0.01 * float64(i+j), MeanStallAbsRMS: float64(i * j)}
		}
		c.Put(keys[i], rows)
	}
	for b.Loop() {
		c, err := runner.NewDiskCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, key := range keys {
			if _, ok := runner.Lookup[[]experiments.SweepRow](c, key); !ok {
				b.Fatalf("entry %s missed", key[:12])
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*recallCells), "ns/cell")
}
