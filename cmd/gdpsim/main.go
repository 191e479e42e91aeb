// Command gdpsim runs the experiments of the GDP reproduction from the
// command line. Each subcommand regenerates one table or figure of the paper,
// and `serve` turns the same engine into a long-lived HTTP service:
//
//	gdpsim table1                 Table I (CMP model parameters)
//	gdpsim fig3                   Figures 3a/3b (accounting accuracy)
//	gdpsim fig4                   Figure 4 (sorted error distributions)
//	gdpsim fig5                   Figure 5 (component error distributions)
//	gdpsim fig6                   Figure 6 (cache partitioning throughput)
//	gdpsim fig7                   Figure 7 (sensitivity analysis)
//	gdpsim headline               Headline ratios derived from fig3
//	gdpsim overhead               Storage and latency overheads (Section IV)
//	gdpsim run                    Run a single workload and print estimates
//	gdpsim scenarios              List the named workload scenarios
//	gdpsim sweep                  Run a user-defined experiment grid
//	gdpsim serve                  Serve estimation queries over HTTP/JSON
//
// Every subcommand runs on one shared gdp.Engine built from the global flags:
// -jobs selects the worker-pool width, -progress reports per-cell progress
// and ETA on stderr, and -cache-dir persists the private-mode reference
// simulations and finished sweep cells across invocations. Output is
// byte-identical for every -jobs value. SIGINT/SIGTERM cancel the root
// context; a running simulation aborts at its next interval boundary and
// `serve` shuts down gracefully, draining in-flight requests first.
//
// A sweep run with -cache-dir is crash-safe: every completed cell is fsynced
// into the cache before the next one starts, so rerunning a killed sweep over
// the same directory recalls the finished cells and simulates only the rest,
// with byte-identical rows. The binary carries no fault injector: faults reach
// the cache and the worker only through seams the tests set (see the
// internal/runner chaos test).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	gdp "repro"
	"repro/internal/config"
	gdpcore "repro/internal/core"
	"repro/internal/dief"
	"repro/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "gdpsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "gdpsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gdpsim", flag.ContinueOnError)
	paperScale := fs.Bool("paper-scale", false, "use the larger paper-like workload population")
	workloads := fs.Int("workloads", 0, "override the number of workloads per cell")
	instructions := fs.Uint64("instructions", 0, "override the per-benchmark instruction sample")
	interval := fs.Uint64("interval", 0, "override the accounting/repartitioning interval in cycles")
	seed := fs.Int64("seed", 42, "random seed")
	cores := fs.Int("cores", 4, "core count for single-cell commands (run, fig6, overhead, table1)")
	benchNames := fs.String("benchmarks", "", "comma-separated benchmark names for the run command")
	jobs := fs.Int("jobs", 0, "worker-pool width for simulation cells (0 = all CPUs, 1 = serial)")
	cacheDir := fs.String("cache-dir", "", "persist simulation results in this directory; a killed sweep rerun over it simulates only the missing cells")
	cacheMemMB := fs.Float64("cache-mem-mb", 0, "bound the result cache's memory layer to this many MB, evicting cold entries (to -cache-dir when set, so they stay one disk read away; 0 = unbounded; may be fractional)")
	progress := fs.Bool("progress", false, "report per-cell progress and ETA on stderr")
	logLevel := fs.String("log-level", "info", "minimum structured log level on stderr (debug, info, warn, error)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs < 0 {
		return fmt.Errorf("-jobs %d out of range (0 = all CPUs, or a positive width)", *jobs)
	}
	if *cores < 1 {
		return fmt.Errorf("-cores %d out of range (at least 1)", *cores)
	}
	// The budget in bytes must fit an int64; NaN fails every comparison.
	if budget := *cacheMemMB * (1 << 20); !(budget >= 0 && budget < math.MaxInt64) {
		return fmt.Errorf("-cache-mem-mb %v out of range (0 = unbounded, or a positive budget in MB)", *cacheMemMB)
	}
	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("missing subcommand (table1, fig3, fig4, fig5, fig6, fig7, headline, overhead, run, scenarios, sweep, serve)")
	}

	scale := gdp.DefaultScale()
	if *paperScale {
		scale = gdp.PaperScale()
	}
	if *workloads > 0 {
		scale.WorkloadsPerCell = *workloads
	}
	if *instructions > 0 {
		scale.InstructionsPerCore = *instructions
	}
	if *interval > 0 {
		scale.IntervalCycles = *interval
	}
	scale.Seed = *seed

	engineOpts := []gdp.EngineOption{gdp.WithScale(scale), gdp.WithJobs(*jobs)}
	if *cacheDir != "" {
		cache, err := gdp.NewDiskResultCache(*cacheDir)
		if err != nil {
			return err
		}
		engineOpts = append(engineOpts, gdp.WithCache(cache))
	}
	if *progress {
		engineOpts = append(engineOpts, gdp.WithProgress(gdp.ConsoleProgress(os.Stderr)))
	}
	if *cacheMemMB > 0 {
		engineOpts = append(engineOpts, gdp.WithCacheBudget(int64(*cacheMemMB*float64(1<<20))))
	}
	engine, err := gdp.NewEngine(engineOpts...)
	if err != nil {
		return err
	}

	switch rest[0] {
	case "table1":
		return cmdTable1(*cores)
	case "fig3", "fig4", "fig5", "fig7", "headline":
		return cmdFigure(ctx, engine, rest[0])
	case "fig6":
		return cmdFig6(ctx, engine, *cores)
	case "overhead":
		return cmdOverhead(*cores)
	case "run":
		return cmdRun(ctx, engine, *cores, *benchNames)
	case "scenarios":
		return cmdScenarios(engine, rest[1:])
	case "sweep":
		return cmdSweep(ctx, engine, rest[1:])
	case "serve":
		return cmdServe(ctx, engine, logger, rest[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

// newLogger builds the process logger: text records on stderr, filtered at
// the given minimum level.
func newLogger(level string) (*slog.Logger, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: l})), nil
}

func cmdTable1(cores int) error {
	fmt.Printf("Table I: CMP model parameters (%d cores)\n", cores)
	for _, row := range experiments.Table1(cores) {
		fmt.Printf("  %-20s %s\n", row.Parameter, row.Value)
	}
	return nil
}

// cmdFigure prints an accuracy figure: Figure 7, or one view of Figure 3's
// studies (Figure 3 itself, Figure 4 or 5 derived from it, or the headline
// ratios).
func cmdFigure(ctx context.Context, engine *gdp.Engine, view string) error {
	if view == "fig7" {
		panels, err := engine.Figure7(ctx, gdp.StudyScale{})
		if err != nil {
			return err
		}
		for _, panel := range panels {
			fmt.Print(panel.Render())
		}
		return nil
	}
	fig3, err := engine.Figure3(ctx, gdp.StudyScale{})
	if err != nil {
		return err
	}
	switch view {
	case "fig3":
		fmt.Print(fig3.Render())
	case "fig4":
		fmt.Print(experiments.Figure4(fig3).Render())
	case "fig5":
		fmt.Print(experiments.Figure5(fig3).Render())
	default:
		fmt.Println("Headline ratios (derived from Figure 3):")
		for _, h := range experiments.Headlines(fig3) {
			fmt.Printf("  %-8s ASM/GDP IPC relative RMS error ratio = %.2fx, GDP/GDP-O stall RMS ratio = %.2fx\n",
				h.Label, h.ASMOverGDPIPCError, h.GDPOverGDPOStallGain)
		}
	}
	return nil
}

func cmdFig6(ctx context.Context, engine *gdp.Engine, cores int) error {
	scale := engine.Scale()
	for _, mix := range []gdp.MixKind{gdp.MixH, gdp.MixM, gdp.MixL} {
		res, err := engine.PartitioningStudy(ctx, gdp.PartitioningOptions{
			Cores:               cores,
			Mix:                 mix,
			Workloads:           scale.WorkloadsPerCell,
			InstructionsPerCore: scale.InstructionsPerCore,
			IntervalCycles:      scale.IntervalCycles,
			Seed:                scale.Seed,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		fmt.Println("  per-workload STP relative to LRU:")
		for _, w := range res.RelativeToLRU() {
			fmt.Printf("    %-14s", w.Workload)
			for _, pol := range experiments.PolicyNames {
				fmt.Printf(" %s=%.2f", pol, w.STP[pol])
			}
			fmt.Println()
		}
	}
	return nil
}

func cmdOverhead(cores int) error {
	gdpUnit, err := gdpcore.New(gdpcore.Options{PRBEntries: 32})
	if err != nil {
		return err
	}
	gdpoUnit, err := gdpcore.New(gdpcore.Options{PRBEntries: 32, TrackOverlap: true})
	if err != nil {
		return err
	}
	cfg := config.PaperConfig(cores)
	full, sampled := dief.StorageBytes(cores, cfg.LLC.Sets(), cfg.LLC.Ways, cfg.ATDSampledSets, 36)
	fmt.Printf("Section IV overheads (%d-core CMP):\n", cores)
	fmt.Printf("  GDP unit storage:    %d bits\n", gdpUnit.StorageBits())
	fmt.Printf("  GDP-O unit storage:  %d bits\n", gdpoUnit.StorageBits())
	fmt.Printf("  DIEF full-map ATDs:  %d KB\n", full>>10)
	fmt.Printf("  DIEF sampled ATDs:   %.1f KB\n", float64(sampled)/1024)
	fmt.Printf("  Estimate latency:    %d cycles (sequential implementation)\n", gdpcore.Equation2LatencyCycles())
	return nil
}

func cmdRun(ctx context.Context, engine *gdp.Engine, cores int, benchNames string) error {
	scale := engine.Scale()
	var wl gdp.Workload
	if benchNames != "" {
		wl.ID = "custom"
		for _, name := range strings.Split(benchNames, ",") {
			b, err := gdp.BenchmarkByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			wl.Benchmarks = append(wl.Benchmarks, b)
		}
		cores = wl.Cores()
	} else {
		ws, err := gdp.GenerateWorkloads(cores, gdp.MixH, 1, scale.Seed)
		if err != nil {
			return err
		}
		wl = ws[0]
	}
	res, err := engine.AccuracyStudyForWorkload(ctx, wl, gdp.AccuracyOptions{
		Cores:               cores,
		Workloads:           1,
		InstructionsPerCore: scale.InstructionsPerCore,
		IntervalCycles:      scale.IntervalCycles,
		Seed:                scale.Seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("Workload %s (%s)\n", wl.ID, strings.Join(wl.Names(), ", "))
	for _, t := range res.Techniques {
		fmt.Printf("  %-6s mean IPC abs RMS=%.4f  mean stall abs RMS=%.1f\n",
			t.Technique, t.MeanIPCAbsRMS, t.MeanStallAbsRMS)
	}
	return nil
}

// cmdScenarios lists the named workload scenarios of the registry.
func cmdScenarios(engine *gdp.Engine, args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("scenarios: unexpected argument %q", args[0])
	}
	fmt.Println("Named workload scenarios (gdpsim sweep -scenario, POST /v1/estimate {\"scenario\": ...}):")
	for _, sc := range engine.Scenarios() {
		fmt.Printf("  %-16s [%s] %s\n", sc.Name, sc.Class, sc.Description)
	}
	return nil
}

// cmdSweep runs a user-defined experiment grid (cores × mixes × PRB sizes,
// plus optional partitioning policies) through the engine and exports the
// flattened results.
func cmdSweep(ctx context.Context, engine *gdp.Engine, args []string) error {
	fs := flag.NewFlagSet("gdpsim sweep", flag.ContinueOnError)
	coresList := fs.String("cores", "4", "comma-separated core counts")
	mixList := fs.String("mixes", "H,M,L", "comma-separated workload categories (H, M, L, HHML, HMML, HMLL)")
	prbList := fs.String("prb", "32", "comma-separated Pending Request Buffer sizes")
	techniques := fs.String("techniques", "", "comma-separated accounting techniques (default: all five)")
	policies := fs.String("policies", "", "comma-separated LLC policies; adds one partitioning cell per (cores, mix)")
	scenarios := fs.String("scenario", "", "comma-separated scenario names; adds one accuracy cell per (cores, scenario)")
	csvPath := fs.String("csv", "", "also export the rows as CSV to this file")
	jsonPath := fs.String("json", "", "also export the result as JSON to this file")
	workers := fs.String("workers", "", "comma-separated base URLs of gdpsim serve workers; shards the grid across the fleet (rows stay byte-identical)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("sweep: unexpected argument %q", fs.Arg(0))
	}

	coreCounts, err := experiments.ParseIntList(*coresList)
	if err != nil {
		return err
	}
	mixes, err := experiments.ParseMixList(*mixList)
	if err != nil {
		return err
	}
	prbs, err := experiments.ParseIntList(*prbList)
	if err != nil {
		return err
	}
	scale := engine.Scale()
	opts := gdp.SweepOptions{
		CoreCounts:          coreCounts,
		Mixes:               mixes,
		PRBSizes:            prbs,
		Workloads:           scale.WorkloadsPerCell,
		InstructionsPerCore: scale.InstructionsPerCore,
		IntervalCycles:      scale.IntervalCycles,
		Seed:                scale.Seed,
	}
	if *techniques != "" {
		opts.Techniques = experiments.ParseStringList(*techniques)
	}
	if *policies != "" {
		opts.Policies = experiments.ParseStringList(*policies)
	}
	if *scenarios != "" {
		opts.Scenarios = experiments.ParseStringList(*scenarios)
		for _, name := range opts.Scenarios {
			if _, err := gdp.ScenarioByName(name); err != nil {
				return err
			}
		}
	}
	var res *gdp.SweepResult
	if *workers != "" {
		res, err = engine.SweepWorkers(ctx, opts, experiments.ParseStringList(*workers))
	} else {
		res, err = engine.Sweep(ctx, opts)
	}
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	if *csvPath != "" {
		if err := res.Table().WriteCSVFile(*csvPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		if err := gdp.WriteJSONFile(*jsonPath, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}

// cmdServe runs the HTTP/JSON estimation service on one shared engine until
// ctx is cancelled (SIGINT/SIGTERM), then shuts down gracefully: the
// listener closes, in-flight requests drain (bounded by -shutdown-timeout)
// and only then does the command return.
func cmdServe(ctx context.Context, engine *gdp.Engine, logger *slog.Logger, args []string) error {
	fs := flag.NewFlagSet("gdpsim serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	maxConcurrent := fs.Int("max-concurrent", 0, "concurrent estimation/sweep requests (0 = 2x CPUs)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 30*time.Second, "how long to drain in-flight requests on shutdown")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes process internals; keep off in shared deployments)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))
	}
	if *maxConcurrent < 0 {
		return fmt.Errorf("serve: -max-concurrent %d out of range (0 = 2x CPUs, or a positive limit)", *maxConcurrent)
	}
	srvOpts := []gdp.ServerOption{gdp.WithLogger(logger)}
	if *maxConcurrent > 0 {
		srvOpts = append(srvOpts, gdp.WithMaxConcurrent(*maxConcurrent))
	}
	if *pprofFlag {
		srvOpts = append(srvOpts, gdp.WithPprof())
	}
	handler, err := gdp.NewServer(engine, srvOpts...)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	return serveUntilDone(ctx, ln, handler, *shutdownTimeout, logger)
}

// serveUntilDone serves handler on ln until ctx is cancelled, then performs a
// graceful shutdown. Split from cmdServe so tests can drive it with their own
// listener and context.
func serveUntilDone(ctx context.Context, ln net.Listener, handler http.Handler, shutdownTimeout time.Duration, logger *slog.Logger) error {
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	// The serving line is the startup contract: scripts (and the serve-smoke
	// CI check) parse the addr attribute to find the ephemeral port.
	logger.Info("serving", "addr", ln.Addr().String(),
		"endpoints", "POST /v1/estimate, POST /v1/sweep, POST /v1/cells, GET /v1/scenarios, GET /healthz, GET /metrics")

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down, draining in-flight requests", "timeout", shutdownTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
