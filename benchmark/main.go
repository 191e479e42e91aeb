// Command benchmark is this repository's ledger: the one layered,
// noise-aware benchmark that every later speed or deletion claim is judged
// by. See README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	go run ./benchmark -workload <name> -seed <n> [-seconds <s>] [-trace 1] [-out <dir>]
//	go run ./benchmark -list
//	go run ./benchmark -compare <dirA> <dirB>
//
// Every layer is measured from outside, by timing calls into its public
// functions and reading deltas of the counters the program already keeps.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

var processStart = time.Now()

// nowNS is a monotonic clock reading in nanoseconds since process start.
func nowNS() int64 { return int64(time.Since(processStart)) }

// runDeadline is the harness's own cap on one run, under the acceptance
// driver's 180 s: a hung layer fails the run instead of hanging the driver.
const runDeadline = 170 * time.Second

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", runSeconds, "how long the timed rounds measure")
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced (end-to-end metrics)")
	outDir := fs.String("out", ".bench_out", "directory for result files, traces and scratch space")
	list := fs.Bool("list", false, "print every workload and metric, then exit")
	manifestOut := fs.Bool("manifest", false, "print BENCHMARK.json from the metric catalogue, then exit")
	compare := fs.Bool("compare", false, "compare two directories of result files: -compare <dirA> <dirB>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *manifestOut:
		if err := writeManifest(stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two directories of result files")
			return 2
		}
		regressed, err := compareSets(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	def, ok := workloadByName(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of %s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runAndRecord(def, runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}, stdout)
	if err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAndRecord runs one workload, prints its report, writes its result file
// and ends standard output with the contract line.
func runAndRecord(def workloadDef, o runOptions, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if o.scratch, err = os.MkdirTemp(o.outDir, "tmp-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.scratch)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	res, err := runWorkload(ctx, def, o)
	if err != nil {
		return nil, err
	}
	printReport(stdout, res)
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	mode := 0
	if o.trace {
		mode = 1
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", def.name, o.seed, mode)
	if err := os.WriteFile(filepath.Join(o.outDir, name), raw, 0o644); err != nil {
		return nil, err
	}
	// The contract line: last on standard output, exactly these keys.
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return nil, err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return res, err
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printReport prints the run for a human: provenance, every metric by name
// with its unit, the noise figures and any failed check.
func printReport(w io.Writer, r *result) {
	p := r.Provenance
	mode := "untraced: end-to-end metrics"
	if p.Trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s\n", p.Workload, p.Seed, mode)
	fmt.Fprintf(w, "provenance: git %s, %s, nproc %d, GOMAXPROCS %d, GOGC %s, %s loop with %d client(s), -seconds %d\n",
		p.GitRev, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.GOGC, p.Loop, p.Clients, p.Seconds)
	var keys []string
	for k := range p.OpCounts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "op counts:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, p.OpCounts[k])
	}
	fmt.Fprintln(w)

	defs := endToEnd
	if p.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		note := ""
		if d.Name == "op_p90_ms" && !r.P90Trusted {
			note = fmt.Sprintf("  (only %d samples: fewer than ten beyond p90)", r.Samples)
		}
		fmt.Fprintf(w, "  %-33s %14.6g %s%s\n", d.Name, r.Metrics[d.Name].Value, d.Unit, note)
	}
	fmt.Fprintf(w, "  %-33s %14.6g ratio  (%d failed of %d attempted)\n", "failed_share", r.FailedShare, r.Failed, r.Attempted)
	fmt.Fprintf(w, "  %-33s %s\n", "out_digest", r.OutDigest)
	if v, ok := r.Counts["round.est_err_gdpo_pct"]; ok {
		fmt.Fprintf(w, "  %-33s %14.6g %%  (simulated: repeats exactly for a seed)\n", "est_err_gdpo_pct", v)
	}
	fmt.Fprintf(w, "rounds: %d (%d latency samples), sim cycles delivered per round %d, calibration best %.3f ms, %d round(s) flagged slow\n",
		len(r.Rounds), r.Samples, r.Rounds[0].Cycles, r.CalibBestMS, r.SlowRounds)
	for i, rr := range r.Rounds {
		flags := ""
		if rr.Traced {
			flags += " traced"
		}
		if rr.Slow {
			flags += " SLOW-CALIBRATION"
		}
		fmt.Fprintf(w, "  round %2d: %8.3f s wall %8.3f s cpu %10.2f op/s  calib %.3f ms%s\n", i, rr.WallS, rr.CPUS, rr.OpsPerS, rr.CalibMS, flags)
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "spans by self time (trace written to %s):\n", r.TraceFile)
		for i, s := range r.Spans {
			if i == 12 {
				break
			}
			fmt.Fprintf(w, "  %-40s n=%-5d total %10.3f ms  self %10.3f ms\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", v)
	}
}

// gitRevision identifies the measured commit when the checkout is a git
// repository (the acceptance driver's is not).
func gitRevision() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func gogcSetting() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "default"
}
