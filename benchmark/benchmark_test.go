package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v of 1..100 = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, // exactly ten beyond
		{99, 90, false}, // nine beyond
		{20, 50, true},
		{19, 50, false},
		{1000, 99, true},
		{999, 99, false},
		{0, 50, false},
	} {
		if got := trustedPercentile(tc.n, tc.p); got != tc.want {
			t.Errorf("trustedPercentile(%d, %v) = %v (beyond = %d), want %v", tc.n, tc.p, got, samplesBeyond(tc.n, tc.p), tc.want)
		}
	}
}

func TestMedianAndMAD(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Rounds 10, 10, 11, 12, 20: median 11, deviations 1,1,0,1,9 -> MAD 1.
	if got, want := madShare([]float64{10, 10, 11, 12, 20}), 1.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("madShare = %v, want %v", got, want)
	}
	if got := madShare([]float64{3, 3, 3}); got != 0 {
		t.Errorf("madShare of equal rounds = %v", got)
	}
}

// The acceptance driver computes spreads with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{10, 20, 30}, 10, 30},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got, want := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadShare = %v, want %v", got, want)
	}
}

func TestSpanSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNS: 0, EndNS: 100},
		// Two workers overlap between 30 and 40: covered 10..60, once.
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},
		// A disjoint child, and one that sticks out of its parent.
		{ID: 4, Parent: 1, Name: "c", StartNS: 70, EndNS: 80},
		{ID: 5, Parent: 1, Name: "d", StartNS: 95, EndNS: 120},
		// A grandchild only reduces its own parent's self time.
		{ID: 6, Parent: 2, Name: "e", StartNS: 15, EndNS: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10 - 5, 2: 30 - 10, 3: 30, 4: 10, 5: 25, 6: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	sum := summarizeSpans(spans)
	if sum[0].Name != "op" || sum[0].SelfMS != 35e-6 {
		t.Errorf("summary does not lead with op's self time: %+v", sum[0])
	}
}

func TestSpanRecorder(t *testing.T) {
	var none *spanRecorder
	ran := false
	none.time(1, 0, "x", func(int) { ran = true })
	if !ran || none.snapshot() != nil {
		t.Error("a nil recorder must run the function and record nothing")
	}
	rec := newSpanRecorder()
	rec.time(7, 0, "outer", func(id int) {
		rec.time(7, id, "inner", func(int) { time.Sleep(time.Millisecond) })
	})
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 7 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if spans[0].StartNS > spans[1].StartNS || spans[0].EndNS < spans[1].EndNS || spans[1].durNS() < int64(time.Millisecond) {
		t.Errorf("inner span not nested in outer: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	var doc struct{ Spans []span }
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) != 2 {
		t.Errorf("trace file does not round-trip: %v", err)
	}
}

func TestRequestGeneratorDeterminism(t *testing.T) {
	encode := func(seed int64) [][]byte {
		bodies, err := encodeBodies(estimateRequests(seed, 80))
		if err != nil {
			t.Fatal(err)
		}
		return bodies
	}
	a, b, c := encode(11), encode(11), encode(12)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed must give identical bodies")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds must give different bodies")
	}
	seen := map[string]bool{}
	combos := map[string]bool{}
	for _, body := range a {
		if seen[string(body)] {
			t.Errorf("duplicate body %s", body)
		}
		seen[string(body)] = true
	}
	for _, r := range estimateRequests(11, 40) {
		combos[r.Scenario+"/"+r.Technique] = true
	}
	if len(combos) != 40 {
		t.Errorf("40 requests cover %d scenario/technique pairs, want all 40", len(combos))
	}
	if sweepGrid(11).Seed == sweepGrid(12).Seed || sweepGrid(11).Seed != sweepGrid(11).Seed {
		t.Error("the sweep grid's seed must follow -seed")
	}
	if reflect.DeepEqual(denseOps(11), denseOps(12)) || !reflect.DeepEqual(sparseOps(11), sparseOps(11)) {
		t.Error("simulation op lists must follow -seed")
	}
}

func TestDeriveSeedSeparatesStreams(t *testing.T) {
	seen := map[int64]bool{}
	for stream := 1; stream <= 5; stream++ {
		for i := 0; i < 200; i++ {
			s := deriveSeed(3, stream, i)
			if s <= 0 || s > 1<<31 {
				t.Fatalf("deriveSeed out of range: %d", s)
			}
			seen[s] = true
		}
	}
	if len(seen) < 995 {
		t.Errorf("only %d distinct seeds out of 1000", len(seen))
	}
}

func TestCellLatenciesFromProgressEvents(t *testing.T) {
	labels := []string{"c0", "c1", "c2", "c3"}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Two workers: c0 and c1 start at 0; c1 finishes first (at 10) and its
	// worker takes c2; c0 finishes at 30 and its worker takes c3.
	events := []runner.Progress{
		{Label: "c1", Elapsed: ms(10)},
		{Label: "c0", Elapsed: ms(30)},
		{Label: "c2", Elapsed: ms(45)},
		{Label: "c3", Elapsed: ms(50)},
	}
	got := cellLatencies(labels, events, 2)
	want := []float64{10, 30, 35, 20} // in completion order: c1, c0, c2 (45-10), c3 (50-30)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("cellLatencies = %v, want %v", got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	wide := func(center float64) []float64 {
		return []float64{center * 0.7, center * 0.9, center, center * 1.1, center * 1.3}
	}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(100), verdictOK},
		{"within bound", lower, tight(100), tight(108), verdictOK},
		{"slower", lower, tight(100), tight(115), verdictRegressed},
		{"faster", lower, tight(100), tight(50), verdictOK},
		{"less throughput", higher, tight(100), tight(85), verdictRegressed},
		{"more throughput", higher, tight(100), tight(130), verdictOK},
		{"noisy", lower, wide(100), wide(104), verdictUnresolved},
		{"noisy but every run better", lower, wide(100), wide(40), verdictOK},
		{"noisy and worse", higher, wide(100), wide(80), verdictUnresolved},
	} {
		if got, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareSetsOnSyntheticFiles(t *testing.T) {
	write := func(dir string, seed int64, opsPerS float64, cycles float64) {
		r := result{
			Provenance: provenance{Workload: "sim_dense", Seed: seed},
			Metrics:    map[string]metricValue{"ops_per_s": {opsPerS, "op/s"}},
			Counts:     map[string]float64{"sim_cycles_delivered_per_round": cycles},
			OutDigest:  "d",
		}
		raw, _ := json.Marshal(r)
		name := filepath.Join(dir, "result-sim_dense-seed"+string(rune('0'+seed))+"-trace0.json")
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	for seed := int64(1); seed <= 5; seed++ {
		write(a, seed, 100+float64(seed)/10, 1000)
		write(b, seed, 101+float64(seed)/10, 1000)
		write(c, seed, 70+float64(seed)/10, 1001)
	}
	var out bytes.Buffer
	bad, err := compareSets(&out, a, b)
	if err != nil || bad {
		t.Errorf("equal sets: bad=%v err=%v\n%s", bad, err, out.String())
	}
	if !strings.Contains(out.String(), "5 run pairs") || !strings.Contains(out.String(), " ok ") {
		t.Errorf("unexpected report:\n%s", out.String())
	}
	out.Reset()
	bad, err = compareSets(&out, a, c)
	if err != nil || !bad {
		t.Errorf("regressed set: bad=%v err=%v", bad, err)
	}
	if !strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), "COUNT MISMATCH") {
		t.Errorf("regression or count mismatch not reported:\n%s", out.String())
	}
	if _, err := compareSets(&out, a, t.TempDir()); err == nil {
		t.Error("an empty set must be an error")
	}
}

func TestBandViolations(t *testing.T) {
	if v := bandViolations("sim_dense", map[string]float64{"sim.processed_share": 0.6}); v != nil {
		t.Errorf("dense inside its band: %v", v)
	}
	if v := bandViolations("sim_dense", map[string]float64{"sim.processed_share": 0.5}); len(v) != 1 {
		t.Errorf("dense below its band: %v", v)
	}
	if v := bandViolations("sim_sparse", map[string]float64{"sim.processed_share": 0.2}); len(v) != 1 {
		t.Errorf("sparse above its band: %v", v)
	}
	if v := bandViolations("serve_dup", map[string]float64{"service.sims_per_request": 0.9}); len(v) != 1 {
		t.Errorf("dup not coalescing: %v", v)
	}
	if v := bandViolations("serve_unique", map[string]float64{"service.sims_per_request": 1}); v != nil {
		t.Errorf("unique at 1: %v", v)
	}
}

// BENCHMARK.json is printed from the catalogue (-manifest); this keeps the
// committed file equal to it and inside the contract's limits.
func TestManifestMatchesCatalogueAndContract(t *testing.T) {
	var printed bytes.Buffer
	if err := writeManifest(&printed); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, printed.Bytes()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(committed))
	}

	m := buildManifest()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract", name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, e := range m.EndToEnd {
		check(e.Name)
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", e)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, l := range m.PerLayer {
		check(l.Name)
		if !unitRE.MatchString(l.Unit) || (l.Better != "lower" && l.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", l)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	for _, d := range perLayer {
		if d.Source != "round" && d.Source != "probe" {
			t.Errorf("%s: source %q", d.Name, d.Source)
		}
		if !strings.Contains(d.Name, ".") || d.Doc == "" || d.Moves == "" {
			t.Errorf("%s: layer, definition and expected movement must all be written down", d.Name)
		}
	}
}

func TestCommandLineErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "no-such-workload"},
		{"-workload", "sim_dense", "-trace", "2"},
		{"-workload", "sim_dense", "-seconds", "0"},
		{"-compare", "only-one-dir"},
		{"-no-such-flag"},
	} {
		var out, errOut bytes.Buffer
		if code := realMain(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit code %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed a result on a usage error: %s", args, out.String())
		}
	}
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-list"}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "sweep_recall") || !strings.Contains(out.String(), "setup_s") {
		t.Errorf("-list: code %d, output %q", code, out.String())
	}
}

func TestCalibrationKernelIsDeterministic(t *testing.T) {
	calibrate()
	first := keepAlive
	calibrate()
	if keepAlive != first {
		t.Error("the calibration kernel must do the same work every time")
	}
	if d := calibrateBest(2); d <= 0 {
		t.Errorf("calibration took %v", d)
	}
}
