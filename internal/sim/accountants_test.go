package sim

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/accounting"
	"repro/internal/workload"
)

// TestAccountantNamesMustDiffer: a run keeps one estimate per accountant name
// (IntervalRecord.Estimates), and a partitioned run feeds its policy the
// first accountant's by name, so two accountants with one name would read
// each other's estimates. Such a run is rejected with an error naming them.
func TestAccountantNamesMustDiffer(t *testing.T) {
	opts := baseOptions(t, 2)
	for _, prb := range []int{8, 32} {
		a, err := accounting.New("GDP-O", 2, prb, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts.Accountants = append(opts.Accountants, a)
	}
	if _, err := Run(t.Context(), opts); err == nil || !strings.Contains(err.Error(), `"GDP-O"`) {
		t.Fatalf("two accountants named GDP-O: err = %v, want an error naming GDP-O", err)
	}
}

// TestTransparentAccountantsDoNotPerturb pins the premise that lets studies
// share one shared-mode run: a transparent accountant only observes the run
// it accounts for. For every scenario at 2 and 4 cores, a run carrying GDP
// and GDP-O at PRB sizes 8 and 1024, ITCA and PTCA takes the same cycles,
// statistics and sample points as a run with no accountant, and a GDP-O
// instance at PRB 32 estimates the same, bit for bit, alone as beside one at
// PRB 8.
func TestTransparentAccountantsDoNotPerturb(t *testing.T) {
	for _, name := range workload.ScenarioNames() {
		for _, cores := range []int{2, 4} {
			bare := scenarioOptions(t, name, cores)
			bare.Accountants = nil
			want := runWith(t, bare)
			loaded := bare
			loaded.Accountants = gdpInstances(t, cores, "GDP/8", "GDP/1024", "GDP-O/8", "GDP-O/1024")
			for _, technique := range []string{"ITCA", "PTCA"} {
				a, err := accounting.New(technique, cores, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				loaded.Accountants = append(loaded.Accountants, a)
			}
			got := runWith(t, loaded)
			if got.Cycles != want.Cycles || !reflect.DeepEqual(got.CoreStats, want.CoreStats) ||
				!reflect.DeepEqual(got.SampleStats, want.SampleStats) || !reflect.DeepEqual(got.SamplePoints, want.SamplePoints) {
				t.Errorf("%s at %d cores: the accountants changed the run (%d cycles, want %d)", name, cores, got.Cycles, want.Cycles)
			}

			alone, beside := bare, bare
			alone.Accountants = gdpInstances(t, cores, "GDP-O/32")
			beside.Accountants = gdpInstances(t, cores, "GDP-O/8", "GDP-O/32")
			a, b := runWith(t, alone), runWith(t, beside)
			for core := range a.Intervals {
				if len(a.Intervals[core]) != len(b.Intervals[core]) {
					t.Fatalf("%s at %d cores, core %d: %d intervals alone, %d beside GDP-O/8", name, cores, core, len(a.Intervals[core]), len(b.Intervals[core]))
				}
				for k, rec := range a.Intervals[core] {
					if x, y := rec.Estimates["GDP-O/32"], b.Intervals[core][k].Estimates["GDP-O/32"]; estimateBits(x) != estimateBits(y) {
						t.Errorf("%s at %d cores, core %d interval %d: GDP-O/32 estimates %+v alone, %+v beside GDP-O/8", name, cores, core, k, x, y)
					}
				}
			}
		}
	}
}

// gdpInstances builds one GDP or GDP-O instance per name, each name being the
// technique and its PRB size ("GDP-O/8").
func gdpInstances(t *testing.T, cores int, names ...string) []accounting.Accountant {
	t.Helper()
	var out []accounting.Accountant
	for _, name := range names {
		technique, size, _ := strings.Cut(name, "/")
		prb, err := strconv.Atoi(size)
		if err != nil {
			t.Fatal(err)
		}
		a, err := accounting.NewGDP(name, cores, prb, technique == "GDP-O")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

func runWith(t *testing.T, opts Options) *Result {
	t.Helper()
	res, err := Run(t.Context(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// estimateBits is e's fields as bits, so equal bits mean bit-identical
// estimates.
func estimateBits(e accounting.Estimate) [6]uint64 {
	return [6]uint64{math.Float64bits(e.PrivateCPI), math.Float64bits(e.PrivateIPC), math.Float64bits(e.SMSStallCycles),
		math.Float64bits(e.PrivateLatency), e.CPL, math.Float64bits(e.AvgOverlap)}
}
