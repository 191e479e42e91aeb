package sim

import (
	"testing"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// allocRunOptions builds a fixed-cycle-budget run: InstructionsPerCore is set
// far above what the budget allows, so the run always executes exactly
// MaxCycles cycles and the interval count is maxCycles/IntervalCycles.
func allocRunOptions(t *testing.T, maxCycles uint64, withAccountant bool, metrics *Metrics) Options {
	t.Helper()
	sc, err := workload.ScenarioByName("streaming")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sc.Workload(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Config:              config.ScaledConfig(2),
		Workload:            wl,
		InstructionsPerCore: 1 << 40,
		IntervalCycles:      2000,
		Seed:                3,
		MaxCycles:           maxCycles,
		DiscardIntervals:    true,
		Metrics:             metrics,
	}
	if withAccountant {
		gdpo, err := accounting.NewGDP(2, 32, true)
		if err != nil {
			t.Fatal(err)
		}
		opts.Accountants = []accounting.Accountant{gdpo}
	}
	return opts
}

// measureRunAllocs returns the average allocation count of a full Run, with
// sink as its OnInterval and policy as its Partitioner when they are non-nil.
func measureRunAllocs(t *testing.T, maxCycles uint64, withAccountant bool, metrics *Metrics, sink func(IntervalRecord) error,
	policy partition.Policy) float64 {

	t.Helper()
	return testing.AllocsPerRun(3, func() {
		opts := allocRunOptions(t, maxCycles, withAccountant, metrics)
		opts.OnInterval = sink
		opts.Partitioner = policy
		if _, err := Run(t.Context(), opts); err != nil {
			t.Fatal(err)
		}
	})
}

// mcpAllocsPerInterval is what a partitioned run's interval loop allocates
// per interval, all of it in the repartitioning step.
const mcpAllocsPerInterval = 3

// TestIntervalLoopZeroAllocations is the allocation-regression test for the
// simulation driver: once a run is warm (request pool filled, scratch slices
// sized), each additional simulated interval must not allocate. It compares
// the total allocations of a short and a long run with identical setup; the
// difference is attributable purely to the extra steady-state intervals. The
// instrumented variants attach a telemetry.Metrics sink, pinning the claim
// that observability does not cost the hot path its allocation-free status,
// and an OnInterval sink, whose records reuse one Estimates map per core.
// A partitioned run writes each core's miss curve into the previous
// interval's array; what it still allocates per interval is MCP's decision
// (its per-core models and the lookahead's allocation) and the LLC's copy of
// that allocation, pinned at mcpAllocsPerInterval in both directions.
func TestIntervalLoopZeroAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector, so a run may build a machine")
	}
	reg := telemetry.NewRegistry()
	for _, tc := range []struct {
		name           string
		withAccountant bool
		metrics        *Metrics
		sink           func(IntervalRecord) error
		policy         partition.Policy
		want           float64 // objects per interval
	}{
		{"no-accountant", false, nil, nil, nil, 0},
		{"gdp-o", true, nil, nil, nil, 0},
		{"gdp-o+metrics", true, NewMetrics(reg), nil, nil, 0},
		{"gdp-o+sink", true, nil, func(IntervalRecord) error { return nil }, nil, 0},
		{"gdp-o+mcp", true, nil, nil, partition.MCP{}, mcpAllocsPerInterval},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const interval = 2000
			shortAllocs := measureRunAllocs(t, 20*interval, tc.withAccountant, tc.metrics, tc.sink, tc.policy)
			longAllocs := measureRunAllocs(t, 120*interval, tc.withAccountant, tc.metrics, tc.sink, tc.policy)
			perInterval := (longAllocs - shortAllocs) / 100
			if perInterval >= tc.want+1 || perInterval <= tc.want-1 {
				t.Errorf("steady-state interval loop allocates %.2f objects/interval (short run %.0f, long run %.0f), want %.0f",
					perInterval, shortAllocs, longAllocs, tc.want)
			} else {
				t.Logf("steady-state allocations: %.3f objects/interval", perInterval)
			}
		})
	}
}

// TestMetricsCountersMatchRun checks the flushed counters against the known
// geometry of a fixed-budget run: exact interval and cycle counts, and a
// fast-forward fraction consistent with the event-driven driver actually
// skipping work.
func TestMetricsCountersMatchRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	const interval = 2000
	const cycles = 20 * interval
	opts := allocRunOptions(t, cycles, true, m)
	if _, err := Run(t.Context(), opts); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, reg, "gdpsim_sim_runs_total"); got != 1 {
		t.Errorf("runs = %d, want 1", got)
	}
	if got := counter(t, reg, "gdpsim_sim_intervals_total"); got != 20 {
		t.Errorf("intervals = %d, want 20", got)
	}
	if got := counter(t, reg, "gdpsim_sim_cycles_total"); got != cycles {
		t.Errorf("cycles = %d, want %d", got, cycles)
	}
	if ff := counter(t, reg, "gdpsim_sim_fastforwarded_cycles_total"); ff >= counter(t, reg, "gdpsim_sim_cycles_total") {
		t.Errorf("fast-forwarded cycles %d not below total %d", ff, counter(t, reg, "gdpsim_sim_cycles_total"))
	}

	// A second run accumulates into the same counters.
	if _, err := Run(t.Context(), allocRunOptions(t, cycles, true, m)); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, reg, "gdpsim_sim_runs_total"); got != 2 {
		t.Errorf("runs after second run = %d, want 2", got)
	}
	if got := counter(t, reg, "gdpsim_sim_cycles_total"); got != 2*cycles {
		t.Errorf("cycles after second run = %d, want %d", got, 2*cycles)
	}
}

// counter reads the value of the counter family name from reg.
func counter(t *testing.T, reg *telemetry.Registry, name string) uint64 {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name == name {
			return uint64(*f.Series[0].Value)
		}
	}
	t.Fatalf("no %s series", name)
	return 0
}
