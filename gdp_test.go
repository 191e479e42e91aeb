package gdp

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/runner"
)

func TestPublicConfigConstructors(t *testing.T) {
	for _, cores := range []int{2, 4, 8} {
		if err := ScaledConfig(cores).Validate(); err != nil {
			t.Errorf("ScaledConfig(%d): %v", cores, err)
		}
	}
}

func TestPublicBenchmarkSuite(t *testing.T) {
	if len(BenchmarkSuite()) != 52 {
		t.Errorf("suite size = %d, want 52", len(BenchmarkSuite()))
	}
	if _, err := BenchmarkByName("omnetpp"); err != nil {
		t.Error(err)
	}
	ws, err := GenerateWorkloads(4, MixH, 3, 1)
	if err != nil || len(ws) != 3 {
		t.Errorf("GenerateWorkloads: %v (%d)", err, len(ws))
	}
}

func TestPublicAccountantConstructors(t *testing.T) {
	for name, build := range map[string]func() (Accountant, error){
		"GDP":   func() (Accountant, error) { return NewGDP(4, 32) },
		"GDP-O": func() (Accountant, error) { return NewGDPO(4, 32) },
		"ITCA":  func() (Accountant, error) { return NewITCA(4) },
		"PTCA":  func() (Accountant, error) { return NewPTCA(4) },
		"ASM":   func() (Accountant, error) { return NewASM(4, 0) },
	} {
		a, err := build()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if a.Name() != name {
			t.Errorf("constructor for %s produced %s", name, a.Name())
		}
	}
}

func TestPublicPoliciesHavePaperNames(t *testing.T) {
	for want, p := range map[string]PartitionPolicy{
		"LRU": LRUPolicy, "UCP": UCPPolicy, "MCP": MCPPolicy, "MCP-O": MCPOPolicy,
	} {
		if p.Name() != want {
			t.Errorf("policy name %q, want %q", p.Name(), want)
		}
	}
}

// newTestEngine builds a default-configured Engine for one test or benchmark.
func newTestEngine(tb testing.TB) *Engine {
	tb.Helper()
	engine, err := NewEngine()
	if err != nil {
		tb.Fatal(err)
	}
	return engine
}

func TestPublicEndToEndRun(t *testing.T) {
	engine := newTestEngine(t)
	cfg := ScaledConfig(2)
	ws, err := GenerateWorkloads(2, MixH, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	acct, err := NewGDPO(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(t.Context(), SimOptions{
		Config:              cfg,
		Workload:            ws[0],
		InstructionsPerCore: 3000,
		IntervalCycles:      3000,
		Seed:                9,
		Accountants:         []Accountant{acct},
		Partitioner:         MCPOPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || len(res.Intervals[0]) == 0 {
		t.Fatal("run produced no results")
	}
	priv, err := engine.RunPrivate(t.Context(), cfg, ws[0].Benchmarks[0], res.SamplePoints[0], 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	privCPI := []float64{priv.Total.CPI(), priv.Total.CPI()}
	sharedCPI := []float64{res.SampleStats[0].CPI(), res.SampleStats[1].CPI()}
	stp, err := metrics.STP(privCPI, sharedCPI)
	if err != nil {
		t.Fatal(err)
	}
	if stp <= 0 || stp > 2.01 {
		t.Errorf("STP = %v out of range", stp)
	}
	if _, err := metrics.ANTT(privCPI, sharedCPI); err != nil {
		t.Error(err)
	}
}

func TestPublicScales(t *testing.T) {
	if DefaultScale().WorkloadsPerCell >= PaperScale().WorkloadsPerCell {
		t.Error("paper scale should be larger than default scale")
	}
}

func TestPublicSweepAndCache(t *testing.T) {
	cache := runner.NewCache()
	var events int
	opts := SweepOptions{
		CoreCounts:          []int{2},
		Mixes:               []MixKind{MixH},
		PRBSizes:            []int{32},
		Techniques:          []string{"GDP-O"},
		Workloads:           1,
		InstructionsPerCore: 2000,
		IntervalCycles:      2000,
		Seed:                5,
	}
	opts.Jobs, opts.Cache, opts.Progress = 2, cache, func(p RunnerProgress) { events++ }
	res, err := newTestEngine(t).Sweep(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Name != "GDP-O" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if events == 0 {
		t.Error("no progress events delivered")
	}
	if _, misses := cache.Stats(); misses == 0 {
		t.Error("cache saw no simulations")
	}
}
