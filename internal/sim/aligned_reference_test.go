package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// union returns the sorted union, without repeats, of point lists.
func union(lists ...[]uint64) []uint64 {
	var out []uint64
	for _, l := range lists {
		out = append(out, l...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// checkAligned derives ref's view on points and compares it with a private
// run over points alone (same benchmark, seed and cycle budget).
func checkAligned(t *testing.T, cfg *config.CMPConfig, bench workload.Benchmark, seed int64, maxCycles uint64,
	ref *PrivateReference, points []uint64) {

	t.Helper()
	view, err := ref.Align(points)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := RunPrivate(cfg, bench, points, seed, maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(view.At, alone.At) {
		t.Errorf("%s seed %d points %v: At differs from a standalone run", bench.Name, seed, points)
	}
	if !reflect.DeepEqual(view.CPLAt, alone.CPLAt) {
		t.Errorf("%s seed %d: CPLAt %v, standalone %v", bench.Name, seed, view.CPLAt, alone.CPLAt)
	}
	if !reflect.DeepEqual(view.OverlapAt, alone.OverlapAt) {
		t.Errorf("%s seed %d: OverlapAt %v, standalone %v", bench.Name, seed, view.OverlapAt, alone.OverlapAt)
	}
}

// TestAlignedReferenceMatchesStandalone pins the exactness of recording one
// private run at the union of several consumers' sample points: the view
// Align derives for each consumer equals what a private run over that
// consumer's points alone records. The consumers are two shared runs of the
// same streams at different interval lengths, a list with a repeated point
// (what a fully stalled interval produces) and a list of adjacent points that
// one tick crosses together.
func TestAlignedReferenceMatchesStandalone(t *testing.T) {
	crossedTogether := 0
	for _, name := range []string{"latency-bound", "bursty", "compute-heavy"} {
		for _, seed := range []int64{1, 7} {
			opts := scenarioOptions(t, name, 2)
			opts.Seed = seed
			a, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.IntervalCycles = 1700
			b, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			for core, bench := range opts.Workload.Benchmarks {
				pa, pb := a.SamplePoints[core], b.SamplePoints[core]
				stalled := []uint64{pa[0], pa[0], pa[1]}
				adjacent := []uint64{1000, 1001, 1002, 1003}
				all := union(pa, pb, stalled, adjacent)
				coreSeed := CoreSeed(seed, core)
				ref, err := RunPrivate(opts.Config, bench, all, coreSeed, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, points := range [][]uint64{pa, pb, stalled, adjacent, all} {
					checkAligned(t, opts.Config, bench, coreSeed, 0, ref, points)
				}
				view, err := ref.Align(adjacent)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(view.At); i++ {
					if view.At[i] == view.At[i-1] {
						crossedTogether++
					}
				}
			}
		}
	}
	if crossedTogether == 0 {
		t.Error("no two adjacent points were crossed in one tick: the case is not covered")
	}
}

// TestAlignedReferenceOutOfBudget covers a reference whose cycle budget runs
// out before its last points: they are padded with the final statistics and
// zero dataflow measurements, in the union run and in every standalone run
// with the same budget.
func TestAlignedReferenceOutOfBudget(t *testing.T) {
	opts := scenarioOptions(t, "latency-bound", 1)
	bench := opts.Workload.Benchmarks[0]
	full, err := RunPrivate(opts.Config, bench, []uint64{4000}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.Total.Cycles / 2
	all := []uint64{500, 1000, 1500, 2000, 2500, 3000, 3500, 4000}
	ref, err := RunPrivate(opts.Config, bench, all, 3, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Depth) == 0 || len(ref.Depth) == len(all) {
		t.Fatalf("budget %d reached %d of %d points; want some but not all", budget, len(ref.Depth), len(all))
	}
	if last := len(all) - 1; ref.At[last] != ref.Total || ref.CPLAt[last] != 0 || ref.OverlapAt[last] != 0 {
		t.Errorf("unreached point not padded: At %+v CPL %d overlap %v", ref.At[last], ref.CPLAt[last], ref.OverlapAt[last])
	}
	for _, points := range [][]uint64{all, {1000, 4000}, {3500, 4000}, {500, 500, 3000}} {
		checkAligned(t, opts.Config, bench, 3, budget, ref, points)
	}
}

// TestRunPrivateRejectsDecreasingPoints: a smaller later point would count as
// reached at once and be recorded against the wrong window, so both drivers
// refuse the list.
func TestRunPrivateRejectsDecreasingPoints(t *testing.T) {
	cfg := config.ScaledConfig(1)
	bench, err := workload.ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	points := []uint64{1000, 2000, 1500}
	if _, err := RunPrivate(cfg, bench, points, 1, 0); err == nil {
		t.Error("RunPrivate accepted decreasing sample points")
	}
	if _, err := RunPrivateReference(t.Context(), cfg, bench, points, 1, 0); err == nil {
		t.Error("RunPrivateReference accepted decreasing sample points")
	}
	ref, err := RunPrivate(cfg, bench, []uint64{1000, 1500, 2000}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Align(points); err == nil {
		t.Error("Align accepted decreasing sample points")
	}
	if _, err := ref.Align([]uint64{1000, 1200}); err == nil {
		t.Error("Align accepted a point the reference did not record")
	}
}

// FuzzAlignedReference checks Align against a standalone run on arbitrary
// subsets of a short reference's points: byte i of the input keeps point i
// when its low bit is set and repeats it when bit 1 is set too.
func FuzzAlignedReference(f *testing.F) {
	f.Add([]byte{1, 0, 3, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	cfg := config.ScaledConfig(1)
	bench, err := workload.ByName("omnetpp")
	if err != nil {
		f.Fatal(err)
	}
	var all []uint64
	for p := uint64(150); p <= 2400; p += 150 {
		all = append(all, p, p+1)
	}
	ref, err := RunPrivate(cfg, bench, all, 5, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var points []uint64
		for i, b := range data {
			if i == len(all) {
				break
			}
			if b&1 == 1 {
				points = append(points, all[i])
				if b&2 == 2 {
					points = append(points, all[i])
				}
			}
		}
		checkAligned(t, cfg, bench, 5, 0, ref, points)
	})
}
