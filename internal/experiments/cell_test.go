package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/runner"
	"repro/internal/workload"
)

// cellTestOptions is a tiny mixed grid: accuracy, partitioning and scenario
// cells all present, so the enumeration order contract covers every kind.
func cellTestOptions() SweepOptions {
	return SweepOptions{
		CoreCounts:          []int{2},
		Mixes:               []workload.MixKind{workload.MixH, workload.MixM},
		PRBSizes:            []int{16, 32},
		Techniques:          []string{"GDP"},
		Policies:            []string{"LRU"},
		Scenarios:           []string{"streaming"},
		Workloads:           1,
		InstructionsPerCore: 3000,
		IntervalCycles:      2000,
		Seed:                7,
	}
}

// TestEnumerateSweepCellsMatchesSweep is the dispatcher's foundational
// contract: concatenating the enumerated cells' rows in order reproduces
// Sweep's rows byte-identically, and the sweep leaves a cache entry
// under every cell's spec key, retrievable with runner.Lookup — exactly how
// the dispatch front-end short-circuits already-known cells.
func TestEnumerateSweepCellsMatchesSweep(t *testing.T) {
	opts := cellTestOptions()
	cache := runner.NewCache()
	opts.Cache = cache

	res, err := Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := EnumerateSweepCells(cellTestOptions())
	if len(cells) != res.Cells {
		t.Fatalf("EnumerateSweepCells = %d cells, sweep ran %d", len(cells), res.Cells)
	}

	var concat []SweepRow
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			t.Fatalf("cell %d (%s) invalid: %v", i, c.Label(), err)
		}
		key, err := runner.SpecKey(c.Spec())
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		rows, ok := runner.Lookup[[]SweepRow](cache, key)
		if !ok {
			t.Fatalf("cell %d (%s): sweep left no cache entry under its spec key", i, c.Label())
		}
		concat = append(concat, rows...)
	}
	got, _ := json.Marshal(concat)
	want, _ := json.Marshal(res.Rows)
	if string(got) != string(want) {
		t.Errorf("concatenated cell rows differ from sweep rows:\n got %s\nwant %s", got, want)
	}
}

// TestCellRunMatchesSweepCache re-executes one enumerated cell standalone
// (fresh cache, as on a remote worker) and requires byte-identical rows to
// the entry the local sweep cached for that cell.
func TestCellRunMatchesSweepCache(t *testing.T) {
	opts := cellTestOptions()
	cache := runner.NewCache()
	opts.Cache = cache
	if _, err := Sweep(context.Background(), opts); err != nil {
		t.Fatal(err)
	}

	cells := EnumerateSweepCells(cellTestOptions())
	c := cells[0]
	key, err := runner.SpecKey(c.Spec())
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := runner.Lookup[[]SweepRow](cache, key)
	if !ok {
		t.Fatalf("no cache entry for cell %s", c.Label())
	}

	standalone, err := c.Run(context.Background(), CellConfig{Cache: runner.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(standalone)
	want, _ := json.Marshal(cached)
	if string(got) != string(want) {
		t.Errorf("standalone cell rows differ from the sweep's cached rows:\n got %s\nwant %s", got, want)
	}
}

// TestCellJSONRoundTrip: a cell survives the wire (JSON) with its spec key
// intact — the property that lets any worker answer from its cache.
func TestCellJSONRoundTrip(t *testing.T) {
	for _, c := range EnumerateSweepCells(cellTestOptions()) {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back Cell
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		k1, err := runner.SpecKey(c.Spec())
		if err != nil {
			t.Fatal(err)
		}
		k2, err := runner.SpecKey(back.Spec())
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Errorf("cell %s: spec key changed across JSON round trip", c.Label())
		}
	}
}

// TestUnknownTechniqueRejected: a misspelled technique is an error, not a
// zero-error entry that reads as a perfect score.
func TestUnknownTechniqueRejected(t *testing.T) {
	opts := quickAccuracyOptions()
	opts.Techniques = []string{"gdp"}
	if res, err := AccuracyStudy(t.Context(), opts); err == nil {
		t.Errorf("AccuracyStudy accepted technique \"gdp\": %+v", res.Techniques)
	}
	grid := cellTestOptions()
	grid.Techniques = []string{"gdp", "GDP"}
	if _, err := Sweep(t.Context(), grid); err == nil {
		t.Error("Sweep accepted technique \"gdp\"")
	}
}

// TestSweepRejectsNonPositiveGridValues: Sweep validates every cell before
// it runs one, so a zero core count or PRB size is an error instead of a run
// under the default labelled 0.
func TestSweepRejectsNonPositiveGridValues(t *testing.T) {
	for name, edit := range map[string]func(*SweepOptions){
		"cores 0": func(o *SweepOptions) { o.CoreCounts = []int{0} },
		"prb 0":   func(o *SweepOptions) { o.PRBSizes = []int{0} },
		"prb -1":  func(o *SweepOptions) { o.PRBSizes = []int{-1} },
	} {
		grid := cellTestOptions()
		grid.Policies, grid.Scenarios = nil, nil
		edit(&grid)
		if _, err := Sweep(t.Context(), grid); err == nil {
			t.Errorf("%s: Sweep accepted the grid", name)
		}
	}
}
