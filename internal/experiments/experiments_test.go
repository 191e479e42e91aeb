package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/accounting"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// testCache is the result cache the package's quick tests share, so studies
// that align on the same private-mode references simulate them once.
var testCache = runner.NewCache()

// quickScale keeps experiment tests fast: tiny samples, one workload per cell.
func quickScale() StudyScale {
	return StudyScale{
		WorkloadsPerCell:    1,
		InstructionsPerCore: 3000,
		IntervalCycles:      3000,
		Seed:                7,
		CoreCounts:          []int{2},
		CellConfig:          CellConfig{Cache: testCache},
	}
}

func quickAccuracyOptions(techniques ...string) AccuracyOptions {
	return AccuracyOptions{
		Cores:               2,
		Mix:                 workload.MixH,
		Workloads:           1,
		InstructionsPerCore: 3000,
		IntervalCycles:      3000,
		Seed:                7,
		Techniques:          techniques,
		CellConfig:          CellConfig{Cache: testCache},
	}
}

func TestAccuracyStudyProducesErrorsForEveryTechnique(t *testing.T) {
	res, err := AccuracyStudy(t.Context(), quickAccuracyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "2c-H" {
		t.Errorf("label = %q", res.Label)
	}
	if len(res.Techniques) != len(accounting.Names) {
		t.Fatalf("techniques = %d, want %d", len(res.Techniques), len(accounting.Names))
	}
	for _, tech := range res.Techniques {
		if len(tech.PerBenchmark) == 0 {
			t.Errorf("%s produced no per-benchmark errors", tech.Technique)
			continue
		}
		if tech.MeanIPCAbsRMS < 0 || tech.MeanStallAbsRMS < 0 {
			t.Errorf("%s has negative mean errors", tech.Technique)
		}
	}
	if res.Technique("GDP") == nil || res.Technique("nope") != nil {
		t.Error("Technique lookup broken")
	}
}

func TestAccuracyStudyComponentErrorsCollected(t *testing.T) {
	res, err := AccuracyStudy(t.Context(), quickAccuracyOptions("GDP-O"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Components.CPLRelRMS) == 0 {
		t.Error("no CPL component errors collected")
	}
	if len(res.Components.LatencyRelRMS) == 0 {
		t.Error("no latency component errors collected")
	}
}

func TestAccuracyStudySubsetOfTechniques(t *testing.T) {
	res, err := AccuracyStudy(t.Context(), quickAccuracyOptions("GDP"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Techniques) != 1 || res.Techniques[0].Technique != "GDP" {
		t.Errorf("expected only GDP, got %+v", res.Techniques)
	}
}

func TestFigure3AndDerivedFigures(t *testing.T) {
	fig3, err := Figure3(t.Context(), quickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig3.Cells) != 3 {
		t.Fatalf("cells = %d, want 3 (one core count, three categories)", len(fig3.Cells))
	}
	rendered := fig3.Render()
	for _, want := range []string{"Figure 3a", "Figure 3b", "GDP-O", "2c-H"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q", want)
		}
	}

	fig4 := Figure4(fig3)
	if len(fig4.Panels) != 1 || fig4.Panels[0].Cores != 2 || len(fig4.Panels[0].Series) == 0 {
		t.Fatalf("Figure 4 panels = %+v, want one 2-core panel with series", fig4.Panels)
	}
	for _, s := range fig4.Panels[0].Series {
		for i := 1; i < len(s.Sorted); i++ {
			if s.Sorted[i] < s.Sorted[i-1] {
				t.Errorf("%s distribution not sorted", s.Technique)
			}
		}
	}

	fig5 := Figure5(fig3)
	if len(fig5.Cells) != 3 {
		t.Errorf("Figure 5 cells = %d, want 3", len(fig5.Cells))
	}

	heads := Headlines(fig3)
	if len(heads) != len(fig3.Cells) {
		t.Errorf("headlines = %d, want %d", len(heads), len(fig3.Cells))
	}
}

func TestTable1(t *testing.T) {
	rows := Table1(4)
	if len(rows) == 0 {
		t.Fatal("Table 1 empty")
	}
	joined := ""
	for _, r := range rows {
		joined += r.Parameter + " " + r.Value + "\n"
	}
	if !strings.Contains(joined, "reorder buffer") || !strings.Contains(joined, "FR-FCFS") {
		t.Error("Table 1 missing expected parameters")
	}
}

func TestPartitioningStudy(t *testing.T) {
	res, err := PartitioningStudy(t.Context(), PartitioningOptions{
		Cores:               2,
		Mix:                 workload.MixH,
		Workloads:           1,
		InstructionsPerCore: 3000,
		IntervalCycles:      2500,
		Seed:                3,
		CellConfig:          CellConfig{Cache: testCache},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorkload) != 1 {
		t.Fatalf("workloads = %d", len(res.PerWorkload))
	}
	for _, pol := range PolicyNames {
		stp, ok := res.PerWorkload[0].STP[pol]
		if !ok {
			t.Errorf("policy %s missing", pol)
			continue
		}
		if stp <= 0 || stp > 2.01 {
			t.Errorf("%s STP = %v out of (0, cores]", pol, stp)
		}
		if res.AverageSTP[pol] <= 0 {
			t.Errorf("%s average STP missing", pol)
		}
	}
	rel := res.RelativeToLRU()
	if len(rel) != 1 {
		t.Fatal("relative-to-LRU missing")
	}
	if rel[0].STP["LRU"] != 1.0 {
		t.Errorf("LRU relative STP = %v, want 1.0", rel[0].STP["LRU"])
	}
	if !strings.Contains(res.Render(), "Figure 6a") {
		t.Error("render missing header")
	}
}

func TestPartitioningStudySubset(t *testing.T) {
	res, err := PartitioningStudy(t.Context(), PartitioningOptions{
		Cores:               2,
		Mix:                 workload.MixM,
		Workloads:           1,
		InstructionsPerCore: 2500,
		IntervalCycles:      2500,
		Seed:                3,
		Policies:            []string{"LRU", "MCP"},
		CellConfig:          CellConfig{Cache: testCache},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.PerWorkload[0].STP["UCP"]; ok {
		t.Error("UCP should not have been evaluated")
	}
	if _, ok := res.PerWorkload[0].STP["MCP"]; !ok {
		t.Error("MCP missing")
	}
}

func TestSensitivityPanels(t *testing.T) {
	// Figure 7's 51 (setting, category) studies ask for 27 distinct shared
	// runs at one workload per cell: the base configuration serves a point in
	// each of panels a to e (7a's middle size, 7b's 16 ways, 7c's one channel,
	// 7d's DDR2 and all five PRB sizes of 7e) on one run per category, and
	// each run's references are one set, whatever the pool width and the cache.
	for _, jobs := range []int{1, 4} {
		for _, cache := range []*runner.Cache{runner.NewCache(), nil} {
			reg := telemetry.NewRegistry()
			instr := NewInstrumentation(reg)
			scale := StudyScale{
				WorkloadsPerCell:    1,
				InstructionsPerCore: 2000,
				IntervalCycles:      2000,
				Seed:                11,
				CellConfig:          CellConfig{Jobs: jobs, Cache: cache, Instr: instr},
			}
			panels, err := Figure7(t.Context(), scale)
			if err != nil {
				t.Fatal(err)
			}
			want := []struct {
				panel  string
				points int
			}{
				{"Figure 7a: LLC size", 3},
				{"Figure 7b: LLC associativity", 3},
				{"Figure 7c: DDR2 channels", 3},
				{"Figure 7d: DRAM interface", 2},
				{"Figure 7e: PRB size", 5},
				{"Figure 7f: mixed workloads", 1},
			}
			if len(panels) != len(want) {
				t.Fatalf("Figure 7 has %d panels, want %d", len(panels), len(want))
			}
			for i, w := range want {
				if panels[i].Panel != w.panel || len(panels[i].Points) != w.points {
					t.Errorf("panel %d = %q with %d points, want %q with %d", i, panels[i].Panel, len(panels[i].Points), w.panel, w.points)
				}
			}
			runs := simRuns(reg)
			if runs != 27 {
				t.Errorf("jobs=%d cache=%t: Figure 7 simulated %d shared runs, want 27", jobs, cache != nil, runs)
			}
			// Without a cache, every pool job that is not a shared run is one
			// reference set; with one, every set is a miss.
			sets := uint64(instr.Pool.JobsTotal.With("ok").Value()) - runs
			if cache != nil {
				_, misses := cache.Stats()
				sets = uint64(misses)
			}
			if sets != 27 {
				t.Errorf("jobs=%d cache=%t: Figure 7 simulated %d reference sets, want 27", jobs, cache != nil, sets)
			}
			if f := panels[5].Points[0]; len(f.ErrorByMix) != 3 {
				t.Errorf("Figure 7f should report the three mixed categories, got %+v", f)
			}
			if !strings.Contains(panels[3].Render(), "Figure 7d") {
				t.Error("render missing panel name")
			}
			if jobs == 1 && cache != nil {
				checkPRBPanel(t, scale, panels[4])
			}
		}
	}
}

// checkPRBPanel holds each Figure 7e setting's GDP-O errors, read off a run
// that carries all five PRB sizes, to a standalone study at that size, bit
// for bit.
func checkPRBPanel(t *testing.T, scale StudyScale, panel *SensitivityResult) {
	t.Helper()
	for i, prb := range []int{8, 16, 32, 64, 1024} {
		for _, mix := range mixes {
			opts := scale.accuracyOptions(4, mix)
			opts.PRBEntries, opts.Techniques = prb, []string{"GDP-O"}
			res, err := AccuracyStudy(t.Context(), opts)
			if err != nil {
				t.Fatal(err)
			}
			want := res.Technique("GDP-O").MeanIPCAbsRMS
			if got := panel.Points[i].ErrorByMix[mix.String()]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Figure 7e %s, %s: GDP-O error %v, a standalone study reads %v", panel.Points[i].Setting, mix, got, want)
			}
		}
	}
}

// TestFigure6PrivateRuns pins quick-scale 4-core Figure 6's private runs: each
// workload's references are one job, so 3 categories × 2 workloads × 4
// cores = 24 private runs beside the 30 policy runs, with a cache or without.
func TestFigure6PrivateRuns(t *testing.T) {
	scale := DefaultScale()
	for _, jobs := range []int{1, 4} {
		for _, cache := range []*runner.Cache{runner.NewCache(), nil} {
			reg := telemetry.NewRegistry()
			instr := NewInstrumentation(reg)
			for _, mix := range mixes {
				_, err := PartitioningStudy(t.Context(), PartitioningOptions{
					Cores: 4, Mix: mix, Workloads: scale.WorkloadsPerCell, InstructionsPerCore: scale.InstructionsPerCore,
					IntervalCycles: scale.IntervalCycles, Seed: scale.Seed,
					CellConfig: CellConfig{Jobs: jobs, Cache: cache, Instr: instr},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			runs := simRuns(reg)
			sets := uint64(instr.Pool.JobsTotal.With("ok").Value()) - runs
			if cache != nil {
				_, misses := cache.Stats()
				sets = uint64(misses)
			}
			if runs != 30 || 4*sets != 24 {
				t.Errorf("jobs=%d cache=%t: Figure 6 simulated %d policy runs and %d private runs, want 30 and 24", jobs, cache != nil, runs, 4*sets)
			}
		}
	}
}

// TestSharedRunCounts pins how many shared runs Figure 3 and a small sweep
// simulate: one per (study, workload, technique group), at every pool width.
func TestSharedRunCounts(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		scale := goldenScale
		scale.CellConfig = CellConfig{Jobs: jobs, Cache: runner.NewCache(), Instr: NewInstrumentation(reg)}
		if _, err := Figure3(t.Context(), scale); err != nil {
			t.Fatal(err)
		}
		// Three categories, one workload each, a transparent and an ASM run.
		if got := simRuns(reg); got != 6 {
			t.Errorf("jobs=%d: Figure 3 simulated %d shared runs, want 6", jobs, got)
		}

		reg = telemetry.NewRegistry()
		_, err := Sweep(t.Context(), SweepOptions{
			CoreCounts:          []int{2},
			Mixes:               []workload.MixKind{workload.MixH},
			PRBSizes:            []int{16, 32},
			Policies:            []string{"LRU", "MCP"},
			Scenarios:           []string{"bursty"},
			Workloads:           1,
			InstructionsPerCore: 1500,
			IntervalCycles:      1500,
			Seed:                3,
			CellConfig:          CellConfig{Jobs: jobs, Cache: runner.NewCache(), Instr: NewInstrumentation(reg)},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Two accuracy and two scenario cells of two runs each, and one
		// partitioning cell of one run per policy.
		if got := simRuns(reg); got != 10 {
			t.Errorf("jobs=%d: the sweep simulated %d shared runs, want 10", jobs, got)
		}
	}
}

// TestSensitivityRenderOrdersMixes: a panel prints its categories in a fixed
// order (H, M, L, then the mixed patterns sorted), not in map order, so
// `gdpsim fig7` output is the same on every run.
func TestSensitivityRenderOrdersMixes(t *testing.T) {
	res := &SensitivityResult{Panel: "Figure 7x", Points: []SensitivityPoint{
		{Setting: "a", ErrorByMix: map[string]float64{"L": 0.3, "HMML": 0.5, "M": 0.2, "HHML": 0.4, "H": 0.1, "HMLL": 0.6}},
		{Setting: "b", ErrorByMix: map[string]float64{"HMLL": 1, "HHML": 2, "HMML": 3}},
		{Setting: "c", ErrorByMix: map[string]float64{"M": 0.25, "L": 0.5, "H": 0.125}},
	}}
	want := "Figure 7x (GDP-O average absolute IPC RMS error)\n" +
		"  a                 H=0.1000  M=0.2000  L=0.3000  HHML=0.4000  HMLL=0.6000  HMML=0.5000\n" +
		"  b                 HHML=2.0000  HMLL=1.0000  HMML=3.0000\n" +
		"  c                 H=0.1250  M=0.2500  L=0.5000\n"
	// Map iteration order is randomised per range statement, so one lucky
	// render proves little; twenty in a row do.
	for i := 0; i < 20; i++ {
		if got := res.Render(); got != want {
			t.Fatalf("render %d:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestDefaultAndPaperScale(t *testing.T) {
	d := DefaultScale()
	p := PaperScale()
	if d.WorkloadsPerCell >= p.WorkloadsPerCell {
		t.Error("paper scale should use more workloads than the default scale")
	}
	if len(p.CoreCounts) != 3 {
		t.Error("paper scale should cover 2, 4 and 8 cores")
	}
}

// simRuns reads reg's gdpsim_sim_runs_total series: how many shared-mode
// runs were simulated.
func simRuns(reg *telemetry.Registry) uint64 {
	for _, f := range reg.Snapshot() {
		if f.Name == "gdpsim_sim_runs_total" {
			return uint64(*f.Series[0].Value)
		}
	}
	return 0
}
