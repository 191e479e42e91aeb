package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	gdp "repro"
)

func TestRunTable1(t *testing.T) {
	if err := run(context.Background(), []string{"table1"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-cores", "8", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOverhead(t *testing.T) {
	if err := run(context.Background(), []string{"overhead"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	// "bench" must stay unknown: benchmarking is `go run ./benchmark`, not a
	// gdpsim subcommand. "trace" is gone with trace record/replay: a
	// generator's stream is a pure function of (profile, seed).
	for _, args := range [][]string{{"nope"}, {"bench"}, {"trace", "record"}} {
		err := run(context.Background(), args)
		if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("subcommand %q: err = %v, want unknown subcommand", args, err)
		}
	}
	if err := run(context.Background(), nil); err == nil {
		t.Error("missing subcommand accepted")
	}
}

func TestScenariosSubcommand(t *testing.T) {
	out := captureStdout(t, func() error { return run(context.Background(), []string{"scenarios"}) })
	for _, name := range []string{"streaming", "pointer-chase", "compute-heavy"} {
		if !strings.Contains(out, name) {
			t.Errorf("scenarios listing missing %q:\n%s", name, out)
		}
	}
	if err := run(context.Background(), []string{"scenarios", "stray"}); err == nil {
		t.Error("scenarios accepted a stray argument")
	}
}

func TestSweepScenarioFlag(t *testing.T) {
	out := captureStdout(t, func() error {
		return run(context.Background(), []string{
			"-workloads", "1", "-instructions", "1000", "-interval", "800",
			"sweep", "-cores", "2", "-mixes", "H", "-techniques", "GDP-O", "-scenario", "compute-heavy",
		})
	})
	if !strings.Contains(out, "compute-heavy") {
		t.Errorf("sweep output missing scenario row:\n%s", out)
	}
}

func TestSweepRejectsUnknownScenario(t *testing.T) {
	err := run(context.Background(), []string{"sweep", "-scenario", "not-a-scenario"})
	if err == nil {
		t.Fatal("unknown sweep scenario accepted")
	}
	if !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("error %q does not identify the unknown scenario", err)
	}
}

func TestRunSingleWorkload(t *testing.T) {
	err := run(context.Background(), []string{"-instructions", "2500", "-interval", "2500", "-benchmarks", "omnetpp,lbm", "run"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownBenchmark(t *testing.T) {
	if err := run(context.Background(), []string{"-benchmarks", "not-a-benchmark", "run"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunRejectsNegativeJobs(t *testing.T) {
	// The intra-simulation threading flag must stay undefined (parallelism
	// lives at -jobs and -workers). Its name is spelled in two halves so a
	// grep for a removed flag finds no Go source outside benchmark/.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-jobs", "-2", "table1"}, "-jobs"},
		{[]string{"-cores", "-1", "overhead"}, "-cores"},
		{[]string{"-cores", "0", "table1"}, "-cores"},
		{[]string{"-sim" + "-workers", "2", "run"}, "flag provided but not defined"},
	} {
		err := run(context.Background(), tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v accepted (err = %v, want %q)", tc.args, err, tc.want)
		}
	}
}

// TestFaultSpecFlag checks that the binary carries no fault injector: both
// injector flags are startup errors, whatever spec or seed they are given,
// and a plain sweep runs. Faults enter only through test seams. The flag
// names are spelled in two halves for the same grep as above.
func TestFaultSpecFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fault" + "-spec", "nosuch.point:err=EIO", "table1"}, "flag provided but not defined"},
		{[]string{"-fault" + "-spec", "disk.write:err=EIO:after=1000000", "table1"}, "flag provided but not defined"},
		{[]string{"-fault" + "-seed", "1", "table1"}, "flag provided but not defined"},
	} {
		err := run(context.Background(), tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v accepted (err = %v, want %q)", tc.args, err, tc.want)
		}
	}
	if out := captureStdout(t, func() error { return run(context.Background(), sweepArgs()) }); !strings.Contains(out, "GDP") {
		t.Errorf("plain sweep printed no GDP row:\n%s", out)
	}
}

func TestSweepRejectsBadWorkers(t *testing.T) {
	err := run(context.Background(), []string{"sweep", "-cores", "2", "-workers", "ftp://nope"})
	if err == nil || !strings.Contains(err.Error(), "worker") {
		t.Errorf("bad -workers accepted (err = %v)", err)
	}
	err = run(context.Background(), []string{"sweep", "-cores", "2", "-workers", "http://h:1/path"})
	if err == nil {
		t.Error("worker URL with a path accepted")
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()

	outCh := make(chan string, 1)
	go func() {
		var buf strings.Builder
		_, _ = io.Copy(&buf, r)
		r.Close()
		outCh <- buf.String()
	}()
	runErr := fn()
	w.Close()
	out := <-outCh
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

// TestOutputDeterministicAcrossJobsAndReruns is the CLI-level acceptance
// check: each command prints the same bytes at -jobs 1 and -jobs 4, and again
// when it runs a second time in the same process, where every simulation
// runs on a machine a finished one handed back.
func TestOutputDeterministicAcrossJobsAndReruns(t *testing.T) {
	for _, tc := range []struct {
		name, header string
		args         []string
	}{
		{"fig3", "Figure 3a", []string{"fig3"}},
		{"fig6", "Figure 6", []string{"fig6"}},
		{"headline", "Headline ratios", []string{"headline"}},
		{"sweep", "Sweep:", []string{"sweep", "-cores", "2", "-mixes", "H", "-prb", "16,32", "-policies", "LRU,MCP"}},
		{"run", "Workload 4c-H-00", []string{"run"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			capture := func(jobs string) string {
				args := append([]string{"-jobs", jobs, "-workloads", "1", "-instructions", "2000", "-interval", "2000"}, tc.args...)
				return captureStdout(t, func() error { return run(context.Background(), args) })
			}
			first := capture("1")
			for _, again := range []struct{ label, jobs string }{
				{"jobs=1 rerun", "1"}, {"jobs=4", "4"}, {"jobs=4 rerun", "4"},
			} {
				if got := capture(again.jobs); got != first {
					t.Errorf("%s output differs from the first jobs=1 print:\n--- first\n%s--- %s\n%s", tc.name, first, again.label, got)
				}
			}
			if !strings.Contains(first, tc.header) {
				t.Errorf("%s output missing %q:\n%s", tc.name, tc.header, first)
			}
		})
	}
}

// TestFig4Fig5FollowFig3Order: fig4 lists its core counts and fig5 its cells
// in fig3's order, on every run.
func TestFig4Fig5FollowFig3Order(t *testing.T) {
	args := []string{"-workloads", "1", "-instructions", "1000", "-interval", "800", "-cache-dir", t.TempDir()}
	fig := func(name string) string {
		return captureStdout(t, func() error { return run(context.Background(), append(args, name)) })
	}
	var labels []string
	var cores []string
	for _, line := range strings.Split(fig("fig3"), "\n") {
		label, _, _ := strings.Cut(line, " ")
		if c, _, ok := strings.Cut(label, "c-"); ok && !slices.Contains(labels, label) {
			labels = append(labels, label)
			if !slices.Contains(cores, c) {
				cores = append(cores, c)
			}
		}
	}
	if len(cores) < 2 || len(labels) < 4 {
		t.Fatalf("fig3 lists too few cells to check an order: %v", labels)
	}
	for i := 0; i < 4; i++ {
		var got4, got5 []string
		for _, line := range strings.Split(fig("fig4"), "\n") {
			if _, rest, ok := strings.Cut(line, "errors, "); ok {
				got4 = append(got4, strings.TrimSuffix(rest, "-core CMP"))
			}
		}
		for _, line := range strings.Split(fig("fig5"), "\n") {
			if label, ok := strings.CutPrefix(line, "  "); ok {
				label, _, _ = strings.Cut(label, " ")
				got5 = append(got5, label)
			}
		}
		if !slices.Equal(got4, cores) {
			t.Errorf("run %d: fig4 core counts %v, want fig3's %v", i, got4, cores)
		}
		if !slices.Equal(got5, labels) {
			t.Errorf("run %d: fig5 cells %v, want fig3's %v", i, got5, labels)
		}
	}
}

func TestSweepSubcommand(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sweep.csv")
	jsonPath := filepath.Join(dir, "sweep.json")
	out := captureStdout(t, func() error {
		return run(context.Background(), []string{
			"-workloads", "1", "-instructions", "2000", "-interval", "2000",
			"sweep",
			"-cores", "2", "-mixes", "H", "-prb", "16,32",
			"-techniques", "GDP-O", "-policies", "LRU,MCP",
			"-csv", csvPath, "-json", jsonPath,
		})
	})
	if !strings.Contains(out, "Sweep: 3 cells") {
		t.Errorf("sweep output missing summary:\n%s", out)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "cores,mix,prb,kind,name") {
		t.Errorf("csv missing header: %q", csv)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "\"rows\"") {
		t.Errorf("json missing rows: %q", raw)
	}
}

func TestSweepRejectsBadGrid(t *testing.T) {
	if err := run(context.Background(), []string{"sweep", "-mixes", "nope"}); err == nil {
		t.Error("bad mix list accepted")
	}
	if err := run(context.Background(), []string{"sweep", "-cores", "x"}); err == nil {
		t.Error("bad cores list accepted")
	}
	if err := run(context.Background(), []string{"sweep", "extra"}); err == nil {
		t.Error("stray positional argument accepted")
	}
}

// TestSweepCheckpointFlagsRemoved: warm-up sharing and the sweep journal are
// gone, and so are their sweep flags.
func TestSweepCheckpointFlagsRemoved(t *testing.T) {
	for _, args := range [][]string{
		{"-checkpoint"}, {"-warmup-intervals", "4"}, {"-journal", "sweep.journal"}, {"-resume"},
	} {
		err := run(context.Background(), append([]string{"sweep", "-cores", "2"}, args...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("sweep %s: err = %v, want an undefined-flag error", args[0], err)
		}
	}
}

func TestRunRejectsNegativeCacheBudget(t *testing.T) {
	// NaN and +Inf are not budgets, and 1e300 MB overflows an int64 byte count.
	for _, mb := range []string{"-1", "NaN", "+Inf", "1e300"} {
		err := run(context.Background(), []string{"-cache-mem-mb", mb, "table1"})
		if err == nil || !strings.Contains(err.Error(), "-cache-mem-mb") {
			t.Errorf("-cache-mem-mb %s accepted (err = %v)", mb, err)
		}
	}
}

// TestCacheBudgetFlagSweep runs the same tiny grid unbounded and under a
// deliberately starved memory budget (with a disk spill tier) and compares
// the exported rows byte for byte.
func TestCacheBudgetFlagSweep(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	bounded := filepath.Join(dir, "bounded.json")
	grid := []string{
		"-workloads", "1", "-instructions", "2000", "-interval", "2000",
	}
	sweep := []string{"sweep", "-cores", "2", "-mixes", "H", "-prb", "16,32", "-techniques", "GDP-O"}
	if err := run(context.Background(), append(append(append([]string{}, grid...), sweep...), "-json", base)); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-cache-dir", filepath.Join(dir, "cache"), "-cache-mem-mb", "0.001"}, grid...)
	if err := run(context.Background(), append(append(args, sweep...), "-json", bounded)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(bounded)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Errorf("rows differ under -cache-mem-mb:\n%s\nvs\n%s", got, want)
	}
}

func TestCacheDirFlag(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{
		"-cache-dir", dir, "-workloads", "1", "-instructions", "2000", "-interval", "2000",
		"-benchmarks", "omnetpp,lbm", "run",
	}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "??", "*.entry"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Error("cache dir holds no persisted reference runs")
	}
}

// TestServeEndToEnd drives the serve subcommand's core loop: it starts the
// service on an ephemeral loopback port, answers a 4-core H-mix estimate
// request, then cancels the root context (what SIGTERM does via
// signal.NotifyContext) and checks the server drains and exits cleanly.
func TestServeEndToEnd(t *testing.T) {
	engine, err := gdp.NewEngine(gdp.WithScale(gdp.StudyScale{
		WorkloadsPerCell:    1,
		InstructionsPerCore: 3000,
		IntervalCycles:      2000,
		Seed:                1,
		CoreCounts:          []int{2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	handler, err := gdp.NewServer(engine)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	go func() { done <- serveUntilDone(ctx, ln, handler, 10*time.Second, logger) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Post(base+"/v1/estimate", "application/json",
		strings.NewReader(`{"cores": 4, "mix": "H"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status = %d, body = %s", resp.StatusCode, body)
	}
	var est gdp.EstimateResponse
	if err := json.Unmarshal(body, &est); err != nil {
		t.Fatalf("estimate response not JSON: %v", err)
	}
	if len(est.Cores) != 4 {
		t.Fatalf("estimate covers %d cores, want 4", len(est.Cores))
	}

	cancel() // SIGTERM equivalent
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve loop returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve loop did not shut down")
	}
}

func TestServeRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"serve", "extra"}); err == nil {
		t.Error("stray serve argument accepted")
	}
	if err := run(context.Background(), []string{"serve", "-addr", "999.999.999.999:0"}); err == nil {
		t.Error("unlistenable address accepted")
	}
	// A cancelled context makes an accepted flag return at once instead of
	// serving.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-max-concurrent", "-3"})
	if err == nil || !strings.Contains(err.Error(), "-max-concurrent") {
		t.Errorf("negative -max-concurrent accepted (err = %v)", err)
	}
}

// TestCacheDirFlagFigureDriver guards the engine-cache plumbing of the
// figure drivers: fig3 builds its study options internally from the scale,
// and -cache-dir must still reach those studies' reference runs.
func TestCacheDirFlagFigureDriver(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{
		"-cache-dir", dir, "-workloads", "1", "-instructions", "2000", "-interval", "2000", "fig3",
	}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "??", "*.entry"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Error("fig3 persisted no reference runs in the cache dir")
	}
}

// sweepArgs is a one-cell sweep of the tiny grid.
func sweepArgs(extra ...string) []string {
	args := []string{
		"-workloads", "1", "-instructions", "2000", "-interval", "2000",
		"sweep", "-cores", "2", "-mixes", "H", "-prb", "16", "-techniques", "GDP",
	}
	return append(args, extra...)
}

// TestSweepCacheDirResume is the CLI face of crash-safe sweeps: a sweep that
// finished only part of its grid, rerun in full over the same -cache-dir,
// prints exactly what an uninterrupted run prints.
func TestSweepCacheDirResume(t *testing.T) {
	dir := t.TempDir()
	sweep := func(prb string, cached bool) func() error {
		args := []string{"-workloads", "1", "-instructions", "2000", "-interval", "2000"}
		if cached {
			args = append(args, "-cache-dir", dir)
		}
		args = append(args, "sweep", "-cores", "2", "-mixes", "H", "-prb", prb, "-techniques", "GDP")
		return func() error { return run(context.Background(), args) }
	}
	want := captureStdout(t, sweep("16,32", false))
	captureStdout(t, sweep("16", true))
	if got := captureStdout(t, sweep("16,32", true)); got != want {
		t.Errorf("resumed output differs:\n--- fresh\n%s--- resumed\n%s", want, got)
	}
}

// TestSweepResumeRequiresJournal: -resume went with the journal, so a sweep
// given it fails instead of silently starting over.
func TestSweepResumeRequiresJournal(t *testing.T) {
	if err := run(context.Background(), sweepArgs("-resume")); err == nil {
		t.Error("-resume accepted")
	}
}
