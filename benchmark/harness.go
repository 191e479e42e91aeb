package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	gdp "repro"
)

// Run protocol. A run is one process. Its load is a fixed, seed-derived list
// of operations (fixed counts, so the program's own counters repeat exactly),
// replayed round after round: one untimed warm-up round inside every set-up,
// then timed rounds until the requested measuring time has passed. Throughput
// and CPU metrics are medians over the rounds; latency percentiles pool every
// timed sample. Every loop is closed: a client sends its next operation only
// after the previous one completed.
const (
	setupRepeats      = 3  // complete set-ups per untraced run; setup_s is their median
	minTimedRounds    = 3  // never report a median of fewer rounds
	maxTimedRounds    = 64 // a fast machine stops here even if time is left
	tracedRunBaseline = 3  // untraced rounds before the traced one in a traced run
	initialCalibs     = 3
	roundCalibs       = 2 // kernel runs per calibration point; the faster one counts
)

// env is what a workload's set-up gets from the harness.
type env struct {
	seed int64
	// clients is the number of load-generating goroutines/connections:
	// min(nproc, 2), the reference box having two CPUs.
	clients int
	// dir is a scratch directory inside the checkout that the harness
	// removes on exit; fixtures create their cache and journal dirs in it.
	dir string
}

// counts holds exact counters of one round, by short name (see engineCounts).
type counts map[string]float64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counts) minus(o counts) counts {
	out := counts{}
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

// roundOut is what one replay of the operation list produced.
type roundOut struct {
	ops    int
	failed int
	// latenciesMS holds one sample per operation (or per group of identical
	// operations, see sweep_recall).
	latenciesMS []float64
	// cycles is the simulated cycles whose results reached the caller.
	cycles uint64
	// digest is the sha256 over the round's canonical outputs.
	digest string
	// counts are the round's registry deltas (see engineCounts); exact is the
	// subset, plus anything simulated, that must repeat exactly for a seed.
	counts counts
	exact  counts
	// violations are failed self-consistency checks, in words.
	violations []string
	// simNS is the time spent inside simulation-calling spans (traced only).
	simNS int64
}

// fixture is one fully set-up workload.
type fixture interface {
	// round replays the operation list once. rec is nil on untraced rounds;
	// with a recorder the fixture drives the same inputs layer by layer with
	// one span around each call into a layer.
	round(ctx context.Context, rec *spanRecorder) (*roundOut, error)
	// idle runs between rounds, outside every timed section.
	idle()
	// verify runs once after the last round: the self-consistency checks that
	// are too expensive for the timed path. It returns violations.
	verify(ctx context.Context) []string
	// opCounts describes the frozen operation list for the provenance block,
	// "clients" (the number of load-generating goroutines) included.
	opCounts() map[string]int
	close()
}

// workloadDef names a workload, says why it exists and builds its fixture.
type workloadDef struct {
	name  string
	why   string
	setup func(ctx context.Context, e env) (fixture, error)
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// provenance is recorded in every output so that numbers from different
// machines, toolchains or settings are never compared by accident.
type provenance struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	GitRev     string         `json:"git_rev"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GOGC       string         `json:"gogc"`
	Clients    int            `json:"clients"`
	Loop       string         `json:"loop"`
	OpCounts   map[string]int `json:"op_counts"`
}

// roundReport is the per-round detail kept in the result file.
type roundReport struct {
	Traced   bool    `json:"traced,omitempty"`
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	Ops      int     `json:"ops"`
	Failed   int     `json:"failed"`
	Cycles   uint64  `json:"cycles"`
	CalibMS  float64 `json:"calib_ms"`
	Slow     bool    `json:"slow,omitempty"`
	OpsPerS  float64 `json:"ops_per_s"`
	Digest   string  `json:"digest"`
	counts   counts
	exact    counts
	simNS    int64
	memAlloc uint64
	numGC    uint32
	pauseNS  uint64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the full outcome of one run, written to the result file; its
// contract projection is the last line of standard output.
type result struct {
	Provenance provenance             `json:"provenance"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]metricValue `json:"metrics"`
	// Counts repeat exactly for a seed; -compare requires them equal.
	Counts      map[string]float64 `json:"counts"`
	OutDigest   string             `json:"out_digest"`
	FailedShare float64            `json:"failed_share"`
	Samples     int                `json:"latency_samples"`
	P90Trusted  bool               `json:"p90_trusted"`
	SetupS      []float64          `json:"setup_s_all,omitempty"`
	Rounds      []roundReport      `json:"rounds"`
	SlowRounds  int                `json:"slow_rounds"`
	CalibBestMS float64            `json:"calib_best_ms"`
	// Noise figures of an untraced run (a traced run reports them as the
	// bench.* per-layer metrics).
	RoundMADShare   float64       `json:"round_mad_share"`
	CalibDriftShare float64       `json:"calib_drift_share"`
	Violations      []string      `json:"violations,omitempty"`
	Spans           []spanSummary `json:"span_summary,omitempty"`
	TraceFile       string        `json:"trace_file,omitempty"`
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the peak resident set of this process in megabytes. It
// reads VmHWM, which belongs to the current memory image: ru_maxrss survives
// exec, so under `go run` it would report the go command's own peak whenever
// that is the larger one. Off Linux it falls back to ru_maxrss (kilobytes).
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// measuredRound runs one round between two calibrations and records wall
// time, CPU time and allocator activity around it.
func measuredRound(ctx context.Context, fx fixture, rec *spanRecorder, calibBefore time.Duration) (*roundOut, roundReport, time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	out, err := fx.round(ctx, rec)
	wall := time.Since(start)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, roundReport{}, 0, err
	}
	calibAfter := calibrateBest(roundCalibs)
	rr := roundReport{
		Traced:   rec != nil,
		WallS:    wall.Seconds(),
		CPUS:     cpu1 - cpu0,
		Ops:      out.ops,
		Failed:   out.failed,
		Cycles:   out.cycles,
		CalibMS:  float64(max(calibBefore, calibAfter).Microseconds()) / 1e3,
		OpsPerS:  float64(out.ops-out.failed) / wall.Seconds(),
		Digest:   out.digest,
		counts:   out.counts,
		exact:    out.exact,
		simNS:    out.simNS,
		memAlloc: m1.TotalAlloc - m0.TotalAlloc,
		numGC:    m1.NumGC - m0.NumGC,
		pauseNS:  m1.PauseTotalNs - m0.PauseTotalNs,
	}
	return out, rr, calibAfter, nil
}

// betweenRounds does the untimed housekeeping that makes rounds start alike.
func betweenRounds(fx fixture) {
	fx.idle()
	runtime.GC()
}

type runOptions struct {
	seed    int64
	seconds int
	trace   bool
	outDir  string
	scratch string
}

// runWorkload executes one run of one workload and returns its result.
func runWorkload(ctx context.Context, def workloadDef, o runOptions) (*result, error) {
	e := env{seed: o.seed, clients: min(runtime.NumCPU(), 2), dir: o.scratch}
	res := &result{
		Provenance: provenance{
			Workload: def.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			GitRev: gitRevision(), GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogcSetting(),
			Loop: "closed",
		},
		Metrics: map[string]metricValue{},
		Counts:  map[string]float64{},
	}
	calibBest := calibrateBest(initialCalibs)

	fx, err := setUp(ctx, def, e, o.trace, res)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	res.Provenance.OpCounts = fx.opCounts()
	res.Provenance.Clients = res.Provenance.OpCounts["clients"]

	rec, latencies, calibBest, err := playRounds(ctx, def, fx, o, calibBest, res)
	if err != nil {
		return nil, err
	}
	res.Violations = append(res.Violations, crossRoundViolations(res.Rounds)...)
	res.Violations = append(res.Violations, fx.verify(ctx)...)
	res.OutDigest = res.Rounds[0].Digest

	// Noise figures.
	res.CalibBestMS = float64(calibBest.Microseconds()) / 1e3
	worstCalib := res.CalibBestMS
	for i := range res.Rounds {
		rr := &res.Rounds[i]
		worstCalib = math.Max(worstCalib, rr.CalibMS)
		if rr.CalibMS > res.CalibBestMS*(1+calibSlowShare) {
			rr.Slow = true
			res.SlowRounds++
		}
	}
	calibDrift := worstCalib/res.CalibBestMS - 1

	var walls, opsPerS, mcyclesPerS, cpuPerOp []float64
	var traced *roundReport
	for i := range res.Rounds {
		rr := &res.Rounds[i]
		if rr.Traced {
			traced = rr
			continue
		}
		walls = append(walls, rr.WallS)
		opsPerS = append(opsPerS, rr.OpsPerS)
		mcyclesPerS = append(mcyclesPerS, float64(rr.Cycles)/1e6/rr.WallS)
		cpuPerOp = append(cpuPerOp, rr.CPUS/float64(max(rr.Ops, 1)))
	}

	// What must repeat exactly for a seed, whatever the machine.
	first := res.Rounds[0]
	res.Counts["sim_cycles_delivered_per_round"] = float64(first.Cycles)
	res.Counts["ops_per_round"] = float64(first.Ops)
	for k, v := range first.exact {
		res.Counts["round."+k] = v
	}

	// measured holds this run's metrics by name; defs is the part of the
	// catalogue the run must fill: end-to-end untraced, per-layer traced.
	var measured map[string]float64
	defs := endToEnd
	if !o.trace {
		res.Samples = len(latencies)
		res.P90Trusted = trustedPercentile(len(latencies), 90)
		res.RoundMADShare, res.CalibDriftShare = madShare(walls), calibDrift
		measured = map[string]float64{
			"setup_s":           median(res.SetupS),
			"ops_per_s":         median(opsPerS),
			"op_p50_ms":         percentile(latencies, 50),
			"op_p90_ms":         percentile(latencies, 90),
			"sim_mcycles_per_s": median(mcyclesPerS),
			"cpu_s_per_op":      median(cpuPerOp),
			"peak_rss_mb":       peakRSSMB(),
		}
	} else {
		defs = perLayer
		measured = roundLayerMetrics(&first, traced)
		measured["bench.round_mad_share"] = madShare(walls)
		measured["bench.calib_drift_share"] = calibDrift
		probes, err := runProbes(ctx, e, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", def.name, err)
		}
		for k, v := range probes {
			measured[k] = v
		}
		res.Violations = append(res.Violations, bandViolations(def.name, measured)...)
		spans := rec.snapshot()
		res.Spans = summarizeSpans(spans)
		res.TraceFile = filepath.Join(o.outDir, "trace-"+def.name+".json")
		if err := writeTrace(res.TraceFile, spans); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", def.name, err)
		}
	}

	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured (value %v)", def.name, d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if d.Count {
			res.Counts[d.Name] = v
		}
	}

	res.Violations = dedupe(res.Violations)
	if len(res.Violations) > 0 && res.Failed == 0 {
		// A failed check means the outputs cannot be trusted: count every
		// operation of a round as failed.
		res.Failed = first.Ops
	}
	res.FailedShare = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Correct = res.Failed == 0 && len(res.Violations) == 0
	return res, nil
}

// setUp builds the workload's fixture and plays its warm-up round — several
// times over in an untraced run, recording each set-up's duration; the last
// fixture is the one measured.
func setUp(ctx context.Context, def workloadDef, e env, traced bool, res *result) (fixture, error) {
	repeats := setupRepeats
	if traced {
		repeats = 1 // a traced run does not report setup_s
	}
	var fx fixture
	for i := 0; i < repeats; i++ {
		if fx != nil {
			fx.close()
		}
		start := time.Now()
		var err error
		if fx, err = def.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		warm, err := fx.round(ctx, nil)
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("%s: warm-up round: %w", def.name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
		res.Violations = append(res.Violations, warm.violations...)
	}
	return fx, nil
}

// playRounds runs the measured rounds into res: timed rounds until -seconds
// have passed in an untraced run; in a traced run a few untraced rounds (the
// overhead baseline) and then one round under the returned span recorder.
// It returns the pooled latencies of the untraced rounds and the best
// calibration seen.
func playRounds(ctx context.Context, def workloadDef, fx fixture, o runOptions, calibBest time.Duration, res *result) (*spanRecorder, []float64, time.Duration, error) {
	var (
		latencies []float64
		rec       *spanRecorder
	)
	calib := calibrateBest(roundCalibs)
	calibBest = min(calibBest, calib)
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for n := 0; ; n++ {
		if o.trace {
			if n == tracedRunBaseline {
				rec = newSpanRecorder()
			} else if n > tracedRunBaseline {
				break
			}
		} else if n >= maxTimedRounds || (n >= minTimedRounds && !time.Now().Before(deadline)) {
			break
		}
		betweenRounds(fx)
		out, rr, calibAfter, err := measuredRound(ctx, fx, rec, calib)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: round %d: %w", def.name, n, err)
		}
		calib = calibAfter
		calibBest = min(calibBest, calibAfter)
		res.Rounds = append(res.Rounds, rr)
		res.Violations = append(res.Violations, out.violations...)
		res.Attempted += out.ops
		res.Failed += out.failed
		if rec == nil {
			latencies = append(latencies, out.latenciesMS...)
		}
	}
	betweenRounds(fx)
	return rec, latencies, calibBest, nil
}

// crossRoundViolations checks that every round delivered the same thing:
// rounds replay the same inputs, so simulated totals and outputs must be
// identical round after round, traced walks included.
func crossRoundViolations(rounds []roundReport) []string {
	var out []string
	r0 := rounds[0]
	for i, rr := range rounds {
		// Compared per operation: a traced walk may visit fewer operations
		// than a full round (sweep_recall walks one restart pair).
		if rr.Cycles*uint64(r0.Ops) != r0.Cycles*uint64(rr.Ops) {
			out = append(out, fmt.Sprintf("round %d delivered %d simulated cycles over %d ops, round 0 delivered %d over %d", i, rr.Cycles, rr.Ops, r0.Cycles, r0.Ops))
		}
		if rr.Digest != r0.Digest {
			out = append(out, fmt.Sprintf("round %d output digest %.12s differs from round 0's %.12s", i, rr.Digest, r0.Digest))
		}
	}
	return out
}

// roundLayerMetrics derives the per-layer metrics whose source is the
// workload's own rounds: counts from an untraced round (the program as its
// users run it), timings from the traced round.
func roundLayerMetrics(untraced, tr *roundReport) map[string]float64 {
	c, t := untraced.counts, tr.counts
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	simNS := float64(tr.simNS)
	processed := t["span_sim_cycles"] - t["span_sim_ff_cycles"]
	memHits := c["cache_mem_hits"] + c["cache_joins"]
	hits := memHits + c["cache_disk_hits"]
	perOp := func(r *roundReport) float64 { return r.WallS / float64(max(r.Ops, 1)) }
	return map[string]float64{
		"service.coalesce_join_share": ratio(c["coalesce_joined"], c["http_estimates"]),
		"service.sims_per_request":    ratio(c["sim_runs"], c["http_estimates"]),
		"service.shed_count":          c["http_shed"],
		"experiments.prefix_runs":     c["ckpt_prefix_runs"],
		"experiments.forks":           c["ckpt_forks"],
		"experiments.cold_fallbacks":  c["ckpt_cold_fallbacks"],
		"runner.cache_mem_hits":       memHits,
		"runner.cache_disk_hits":      c["cache_disk_hits"],
		"runner.cache_misses":         c["cache_misses"],
		"runner.cache_disk_bytes":     c["cache_disk_bytes"],
		"runner.cache_hit_share":      ratio(hits, hits+c["cache_misses"]),
		"sim.processed_share":         ratio(c["sim_cycles"]-c["sim_ff_cycles"], c["sim_cycles"]),
		"sim.ns_per_cycle":            ratio(simNS, t["span_sim_cycles"]),
		"sim.ns_per_processed_cycle":  ratio(simNS, processed),
		"sim.intervals_per_s":         ratio(t["span_sim_intervals"], simNS/1e9),
		"runtime.alloc_kb_per_op":     float64(tr.memAlloc) / 1024 / float64(max(tr.Ops, 1)),
		"runtime.gc_cycles":           float64(tr.numGC),
		"runtime.gc_pause_ms":         float64(tr.pauseNS) / 1e6,
		"bench.trace_overhead_share":  perOp(tr)/perOp(untraced) - 1,
	}
}

// Declared bands: a workload that drifts out of them no longer measures what
// its "why" says it measures.
const (
	denseMinProcessed  = 0.55
	sparseMaxProcessed = 0.15
	dupMaxSimsPerReq   = 0.6
)

func bandViolations(workload string, layer map[string]float64) []string {
	var out []string
	switch workload {
	case "sim_dense":
		if v := layer["sim.processed_share"]; v < denseMinProcessed {
			out = append(out, fmt.Sprintf("sim.processed_share = %.3f on sim_dense, declared >= %.2f", v, denseMinProcessed))
		}
	case "sim_sparse":
		if v := layer["sim.processed_share"]; v > sparseMaxProcessed {
			out = append(out, fmt.Sprintf("sim.processed_share = %.3f on sim_sparse, declared <= %.2f", v, sparseMaxProcessed))
		}
	case "serve_unique":
		if v := layer["service.sims_per_request"]; v != 1 {
			out = append(out, fmt.Sprintf("service.sims_per_request = %.3f on serve_unique, declared 1", v))
		}
	case "serve_dup":
		if v := layer["service.sims_per_request"]; v > dupMaxSimsPerReq {
			out = append(out, fmt.Sprintf("service.sims_per_request = %.3f on serve_dup, declared <= %.1f", v, dupMaxSimsPerReq))
		}
	}
	return out
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// engineCounts flattens the engine's metric registry into the short counter
// names the harness works with. Only existing series are read; nothing is
// added to the program under test.
func engineCounts(e *gdp.Engine) counts {
	flat := map[string]float64{}
	for _, fam := range e.MetricsRegistry().Snapshot() {
		for _, s := range fam.Series {
			key := fam.Name
			if len(s.Labels) > 0 {
				var parts []string
				for k, v := range s.Labels {
					parts = append(parts, k+"="+v)
				}
				sort.Strings(parts)
				key += "{" + strings.Join(parts, ",") + "}"
			}
			switch {
			case s.Value != nil:
				flat[key] = *s.Value
			case s.Histogram != nil:
				flat[key+"_count"] = float64(s.Histogram.Count)
			}
		}
	}
	c := counts{
		"sim_runs":            flat["gdpsim_sim_runs_total"],
		"sim_cycles":          flat["gdpsim_sim_cycles_total"],
		"sim_ff_cycles":       flat["gdpsim_sim_fastforwarded_cycles_total"],
		"sim_intervals":       flat["gdpsim_sim_intervals_total"],
		"cache_mem_hits":      flat["gdpsim_cache_hits_total{layer=memory}"],
		"cache_disk_hits":     flat["gdpsim_cache_hits_total{layer=disk}"],
		"cache_misses":        flat["gdpsim_cache_misses_total"],
		"cache_joins":         flat["gdpsim_cache_inflight_joins_total"],
		"cache_disk_bytes":    flat["gdpsim_cache_disk_bytes_written_total"],
		"ckpt_prefix_runs":    flat["gdpsim_checkpoint_prefix_runs_total"],
		"ckpt_forks":          flat["gdpsim_checkpoint_forks_total"],
		"ckpt_cold_fallbacks": flat["gdpsim_checkpoint_cold_fallbacks_total"],
		"http_shed":           flat["gdpsim_http_shed_total"],
		"coalesce_joined":     flat["gdpsim_coalesce_joined_total"],
	}
	for key, v := range flat {
		if strings.HasPrefix(key, "gdpsim_http_requests_total{") && strings.Contains(key, "endpoint=/v1/estimate") {
			c["http_estimates"] += v
		}
		if strings.HasPrefix(key, "gdpsim_dispatch_worker_failures_total") {
			c["dispatch_failures"] += v
		}
	}
	return c
}

// exactCounts picks, from a round's registry deltas, the counters that do not
// depend on scheduling: which of two concurrent lookups computes and which
// joins is a race, so memory hits and in-flight joins only repeat as a sum.
// withSim is false where the number of simulations itself depends on timing
// (serve_dup: a pair coalesces only if its halves overlap).
func exactCounts(c counts, withSim bool) counts {
	out := counts{
		"cache_hits":          c["cache_mem_hits"] + c["cache_joins"] + c["cache_disk_hits"],
		"cache_misses":        c["cache_misses"],
		"cache_disk_bytes":    c["cache_disk_bytes"],
		"ckpt_prefix_runs":    c["ckpt_prefix_runs"],
		"ckpt_forks":          c["ckpt_forks"],
		"ckpt_cold_fallbacks": c["ckpt_cold_fallbacks"],
		"http_estimates":      c["http_estimates"],
		"http_shed":           c["http_shed"],
	}
	if withSim {
		for _, k := range []string{"sim_runs", "sim_cycles", "sim_ff_cycles", "sim_intervals"} {
			out[k] = c[k]
		}
	}
	return out
}
