package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/accounting"
	"repro/internal/workload"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with the current outputs")

// goldenScale is the fixed small scale the golden runs pin. Changing it
// invalidates the golden files by construction, so it lives in one place.
var goldenScale = StudyScale{
	WorkloadsPerCell:    1,
	InstructionsPerCore: 2000,
	IntervalCycles:      1500,
	Seed:                7,
	CoreCounts:          []int{2},
	CellConfig:          CellConfig{Jobs: 1},
}

// compareGolden asserts got matches the named golden file, or rewrites the
// file under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create it): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("output diverged from %s (rerun with -update if the change is intended)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// renderAccuracyGolden renders an AccuracyResult at full float precision so
// even sub-ulp drifts in the simulation or reduction pipeline fail the
// comparison.
func renderAccuracyGolden(res *AccuracyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "label %s\n", res.Label)
	for _, ta := range res.Techniques {
		fmt.Fprintf(&b, "technique %s mean_ipc_abs=%.12g mean_ipc_rel=%.12g mean_stall_abs=%.12g\n",
			ta.Technique, ta.MeanIPCAbsRMS, ta.MeanIPCRelRMS, ta.MeanStallAbsRMS)
		for _, e := range ta.PerBenchmark {
			fmt.Fprintf(&b, "  %s core%d %s ipc_abs=%.12g ipc_rel=%.12g stall_abs=%.12g stall_rel=%.12g\n",
				e.Workload, e.Core, e.Benchmark, e.IPCAbsRMS, e.IPCRelRMS, e.StallAbsRMS, e.StallRelRMS)
		}
	}
	writeSeries := func(name string, vs []float64) {
		fmt.Fprintf(&b, "components %s n=%d", name, len(vs))
		for _, v := range vs {
			fmt.Fprintf(&b, " %.12g", v)
		}
		b.WriteString("\n")
	}
	writeSeries("cpl", res.Components.CPLRelRMS)
	writeSeries("overlap", res.Components.OverlapRelRMS)
	writeSeries("latency", res.Components.LatencyRelRMS)
	return b.String()
}

// TestAccuracyStudyGolden pins the full AccuracyStudy output (per-benchmark
// RMS errors, technique means and component distributions) at a fixed small
// scale and seed, so refactors of the simulator, the accounting techniques or
// the runner cannot silently shift the paper's numbers.
func TestAccuracyStudyGolden(t *testing.T) {
	res, err := AccuracyStudy(t.Context(), AccuracyOptions{
		Cores:               2,
		Mix:                 workload.MixH,
		Workloads:           2,
		InstructionsPerCore: goldenScale.InstructionsPerCore,
		IntervalCycles:      goldenScale.IntervalCycles,
		Seed:                goldenScale.Seed,
		CellConfig:          CellConfig{Jobs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "accuracy_2c_H.golden", renderAccuracyGolden(res))
}

// TestFigure3Golden pins the Figure 3 summary tables (the paper-facing
// rendering plus a full-precision dump of every cell value).
func TestFigure3Golden(t *testing.T) {
	res, err := Figure3(t.Context(), goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(res.Render())
	for _, cell := range res.Cells {
		for _, tech := range accounting.Names {
			fmt.Fprintf(&b, "cell %s %s ipc_abs=%.12g ipc_rel=%.12g stall_abs=%.12g\n",
				cell.Label, tech, cell.IPCAbsRMS[tech], cell.IPCRelRMS[tech], cell.StallAbsRMS[tech])
		}
	}
	compareGolden(t, "figure3_small.golden", b.String())
}
