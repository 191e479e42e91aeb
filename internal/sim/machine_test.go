package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/partition"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runOn runs opts on m and then resets m, as release does before pooling it.
func runOn(t *testing.T, m *machine, opts Options) *Result {
	t.Helper()
	defer m.reset()
	if err := m.start(opts); err != nil {
		t.Fatal(err)
	}
	if err := m.runFast(t.Context()); err != nil {
		t.Fatal(err)
	}
	return m.res
}

// keyOf is the machine key of a shared-mode run of opts.
func keyOf(opts Options) machineKey { return machineKey{cfg: *opts.Config, cores: opts.Config.Cores} }

// freshRun runs opts on a machine built for it alone.
func freshRun(t *testing.T, opts Options) *Result {
	t.Helper()
	m, err := newMachine(keyOf(opts))
	if err != nil {
		t.Fatal(err)
	}
	return runOn(t, m, opts)
}

// freshPrivate runs bench alone on a machine built for it alone.
func freshPrivate(t *testing.T, cfg *config.CMPConfig, bench workload.Benchmark, points []uint64, seed int64) *PrivateReference {
	t.Helper()
	m, err := newMachine(machineKey{cfg: *cfg, cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.runPrivate(t.Context(), bench, points, seed, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// reuseCases are shared-mode runs that share machine keys across scenarios,
// accountants and partitioning (ASM programs the controller's rotation, MCP
// the LLC's partition; neither may leak into the next run) and differ in
// core count and LLC size. Each call builds fresh accountants.
func reuseCases(t *testing.T) []struct {
	name string
	opts func() Options
} {
	return []struct {
		name string
		opts func() Options
	}{
		{"compute-heavy/2c", func() Options { return scenarioOptions(t, "compute-heavy", 2) }},
		{"cache-thrash/2c/ASM+MCP", func() Options {
			opts := scenarioOptions(t, "cache-thrash", 2)
			asm, err := accounting.NewASM(2, 900)
			if err != nil {
				t.Fatal(err)
			}
			opts.Accountants = append([]accounting.Accountant{asm}, opts.Accountants...)
			opts.Partitioner = partition.MCP{}
			return opts
		}},
		{"latency-bound/4c", func() Options { return scenarioOptions(t, "latency-bound", 4) }},
		{"streaming/2c/kept-intervals", func() Options {
			opts := scenarioOptions(t, "streaming", 2)
			opts.Seed = 3
			return opts
		}},
		{"pointer-chase/2c/small-LLC/discarded", func() Options {
			opts := scenarioOptions(t, "pointer-chase", 2)
			opts.Config = opts.Config.WithLLCSize(opts.Config.LLC.SizeBytes / 2)
			opts.DiscardIntervals = true
			opts.OnInterval = func(IntervalRecord) error { return nil }
			return opts
		}},
	}
}

// TestMachineReuseMatchesFreshBuilds runs shared- and private-mode runs that
// alternate scenarios, core counts and configurations on one machine per key,
// twice round, and requires each result to equal the same run on a machine
// built for it alone.
func TestMachineReuseMatchesFreshBuilds(t *testing.T) {
	machines := map[machineKey]*machine{}
	machineFor := func(k machineKey) *machine {
		if machines[k] == nil {
			m, err := newMachine(k)
			if err != nil {
				t.Fatal(err)
			}
			machines[k] = m
		}
		return machines[k]
	}
	privCfg := config.ScaledConfig(2)
	for round := range 2 {
		for i, c := range reuseCases(t) {
			t.Run(fmt.Sprintf("round%d/%s", round, c.name), func(t *testing.T) {
				opts := c.opts()
				got := runOn(t, machineFor(keyOf(opts)), opts)
				if want := freshRun(t, c.opts()); !reflect.DeepEqual(got, want) {
					t.Fatalf("reused machine diverges from a fresh one:\ngot:  %+v\nwant: %+v", got, want)
				}
			})
			// A private run between the shared ones, on its own key.
			wl := scenarioOptions(t, workload.ScenarioNames()[i], 1).Workload
			points := []uint64{500 * uint64(i+1), 3000}
			got, err := machineFor(machineKey{cfg: *privCfg, cores: 1}).runPrivate(t.Context(), wl.Benchmarks[0], points, int64(i), 0, false)
			machineFor(machineKey{cfg: *privCfg, cores: 1}).reset()
			if err != nil {
				t.Fatal(err)
			}
			if want := freshPrivate(t, privCfg, wl.Benchmarks[0], points, int64(i)); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d private run %d on a reused machine diverges:\ngot:  %+v\nwant: %+v", round, i, got, want)
			}
		}
	}
}

// expiringCtx reports cancellation from its n-th Err call on, so a test
// cancels a run at a point it picks without a timer.
type expiringCtx struct {
	context.Context
	calls, n int
}

func (c *expiringCtx) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestMachineReusedAfterCancelOrFailure hands a machine back from a
// cancelled run, a run its OnInterval sink failed and a run whose workload
// failed to load, and requires the next run on it to equal a fresh build.
func TestMachineReusedAfterCancelOrFailure(t *testing.T) {
	errSink := errors.New("sink gave up")
	invalid := workload.Benchmark{Name: "invalid", Params: trace.Params{}}
	for _, c := range []struct {
		name string
		edit func(*Options) context.Context
		want error
	}{
		{"cancelled", func(*Options) context.Context {
			return &expiringCtx{Context: context.Background(), n: 3}
		}, context.Canceled},
		{"sink-failed", func(o *Options) context.Context {
			calls := 0
			o.OnInterval = func(IntervalRecord) error {
				if calls++; calls == 5 {
					return errSink
				}
				return nil
			}
			return context.Background()
		}, errSink},
		{"load-failed", func(o *Options) context.Context {
			o.Workload.Benchmarks = append([]workload.Benchmark{o.Workload.Benchmarks[0]}, invalid)
			return context.Background()
		}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			first := scenarioOptions(t, "cache-thrash", 2)
			ctx := c.edit(&first)
			m, err := newMachine(keyOf(first))
			if err != nil {
				t.Fatal(err)
			}
			err = m.start(first)
			if err == nil {
				err = m.runFast(ctx)
			}
			m.reset()
			if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
				t.Fatalf("first run err = %v, want %v", err, c.want)
			}
			next := scenarioOptions(t, "bandwidth-bound", 2)
			if got, want := runOn(t, m, next), freshRun(t, scenarioOptions(t, "bandwidth-bound", 2)); !reflect.DeepEqual(got, want) {
				t.Fatalf("machine handed back by a %s run diverges from a fresh one", c.name)
			}
		})
	}
	t.Run("private-cancelled", func(t *testing.T) {
		cfg := config.ScaledConfig(2)
		wl := scenarioOptions(t, "latency-bound", 1).Workload
		points := []uint64{1000, 4000}
		m, err := newMachine(machineKey{cfg: *cfg, cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.runPrivate(&expiringCtx{Context: context.Background(), n: 3}, wl.Benchmarks[0], points, 5, 0, false)
		m.reset()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("first private run err = %v, want context.Canceled", err)
		}
		got, err := m.runPrivate(t.Context(), wl.Benchmarks[0], points, 6, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshPrivate(t, cfg, wl.Benchmarks[0], points, 6); !reflect.DeepEqual(got, want) {
			t.Fatal("machine handed back by a cancelled private run diverges from a fresh one")
		}
	})
}

// TestPooledRunsMatchFreshBuilds drives the pool itself: Run and RunPrivate
// alternate on one goroutine, each equal to a fresh build, and then several
// goroutines share the pools at once (the race detector's case under make
// race).
func TestPooledRunsMatchFreshBuilds(t *testing.T) {
	cases := reuseCases(t)
	want := make([]*Result, len(cases))
	cfg := config.ScaledConfig(4)
	bench := scenarioOptions(t, "cache-thrash", 1).Workload.Benchmarks[0]
	points := []uint64{1500, 3000}
	wantPriv := freshPrivate(t, cfg, bench, points, 9)
	for i, c := range cases {
		want[i] = freshRun(t, c.opts())
		got, err := Run(t.Context(), c.opts())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s: pooled run diverges from a fresh build", c.name)
		}
		priv, err := RunPrivate(t.Context(), cfg, bench, points, 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(priv, wantPriv) {
			t.Fatalf("private run after %s diverges from a fresh build", c.name)
		}
	}

	const goroutines, rounds = 4, 2
	opts := make([][]Options, goroutines)
	for g := range opts {
		for r := range rounds * len(cases) {
			opts[g] = append(opts[g], cases[(g+r)%len(cases)].opts())
		}
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r, o := range opts[g] {
				got, err := Run(context.Background(), o)
				if err != nil {
					t.Error(err)
					return
				}
				if i := (g + r) % len(cases); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: concurrent %s diverges from a fresh build", g, cases[i].name)
				}
			}
		}()
	}
	wg.Wait()
}

// TestWarmRunAllocatesOnlyItsResult pins what a run on a warm pool
// allocates: the Result and its slices, nothing of the machine, the stepper,
// the interval records or the estimate maps an OnInterval sink sees.
func TestWarmRunAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector, so a run may build a machine")
	}
	opts := allocRunOptions(t, 20*2000, true, nil)
	opts.OnInterval = func(IntervalRecord) error { return nil }
	// Result, CoreStats, SampleStats, Intervals, SamplePoints and the one
	// array behind every core's sample points.
	const resultObjects = 6
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(t.Context(), opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a warm run allocates %.1f objects", allocs)
	if allocs > resultObjects {
		t.Errorf("a warm run allocates %.1f objects, want at most %d (its result)", allocs, resultObjects)
	}
}

// TestNaNConfigIsNeverPooled: a NaN makes a configuration unequal to itself,
// so its key would add a pool to the table on every run. Such runs build a
// machine each and leave the table as it was.
func TestNaNConfigIsNeverPooled(t *testing.T) {
	opts := scenarioOptions(t, "compute-heavy", 2)
	opts.Config.ClockGHz = math.NaN()
	pools := func() int {
		machines.Lock()
		defer machines.Unlock()
		return len(machines.pools)
	}
	before := pools()
	for range 3 {
		if _, err := Run(t.Context(), opts); err != nil {
			t.Fatal(err)
		}
	}
	if after := pools(); after != before {
		t.Errorf("NaN-configured runs grew the pool table from %d to %d keys", before, after)
	}
}
