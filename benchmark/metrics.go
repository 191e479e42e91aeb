package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one entry of the metric catalogue: the single place a metric's
// name, unit, direction and regression bound are written down. BENCHMARK.json
// is printed from this catalogue (-manifest) and a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end metric
	// may get worse before a change counts as a regression. Zero for
	// per-layer metrics, which carry no bound.
	Bound float64
	// Count marks a value that is simulated or counted rather than timed: it
	// repeats exactly for a seed, so two commits compare exactly.
	Count bool
	// Source says where a per-layer metric is measured: "round" is the
	// workload's own traced round (0 when the workload never reaches the
	// layer), "probe" is the layer-probe suite that every traced run drives
	// on fixed small fixtures.
	Source string
	Doc    string
	// Moves names the end-to-end metric and workload this layer metric is
	// expected to move — and, where it matters, what it must not move.
	Moves string
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them, from untraced runs only.
//
// The bounds are three times the widest run-to-run spread (interquartile
// distance over ten seeds, as a share of the median) measured for the metric
// on any workload in three sets of ten runs on the two-CPU reference box,
// rounded up and capped at the contract's 25 %: 7.6 % for ops_per_s, 6.4 %
// for op_p50_ms, 9.1 % for op_p90_ms, 7.6 % for sim_mcycles_per_s, 7.8 % for
// cpu_s_per_op, 3.9 % for peak_rss_mb. About half of each spread is the seed
// (another seed draws other benchmarks into the sweep grid), the rest is the
// box drifting by +-5 % over minutes. A tighter bound would make the ledger
// call that drift a regression.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "everything before the first timed round: engine/server construction, body pre-encoding, fixture population, the warm-up round; median of 3 complete set-ups"},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25,
		Doc: "completed operations per wall second; median over the timed rounds"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20,
		Doc: "median operation latency, pooled over every timed sample"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "p90 operation latency, pooled; trusted at >= 100 samples (ten beyond), the report flags fewer"},
	{Name: "sim_mcycles_per_s", Unit: "Mcycle/s", Better: "higher", Bound: 0.25,
		Doc: "simulated megacycles whose results were delivered to the caller per host second (recalled and coalesced results count: the caller got them); the simulated cycle total itself repeats exactly"},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "getrusage user+sys CPU seconds per operation over a timed round, in-process load generator included; median over rounds"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		Doc: "peak resident set (VmHWM) of the benchmark process at exit"},
}

// perLayer lists the metrics of single layers, module names as prefixes. They
// come from traced runs only and carry no bound.
var perLayer = []metricDef{
	// service: the HTTP wrapper around the engine.
	{Name: "service.rtt_p50_ms", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "median loopback POST /v1/estimate round trip, 1 connection, unique bodies", Moves: "op_p50_ms on serve_unique"},
	{Name: "service.rtt_p90_ms", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "p90 of the same round trips (p99 would need 1000 samples to have ten beyond it)", Moves: "op_p90_ms on serve_unique"},
	{Name: "service.overhead_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "median of (HTTP round trip - in-process Engine.Estimate on the same body), paired", Moves: "op_p50_ms, cpu_s_per_op on serve_unique; nothing on sim_* and sweep_*"},
	{Name: "service.overhead_share", Unit: "ratio", Better: "lower", Source: "probe",
		Doc: "service.overhead_us as a share of the median round trip", Moves: "bounds what service-layer work can save on serve_*"},
	{Name: "service.badreq_rtt_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "round trip of a request rejected with 400: decode + validate, no simulation", Moves: "none: no workload sends bad requests"},
	{Name: "service.healthz_rtt_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "GET /healthz round trip", Moves: "none"},
	{Name: "service.metrics_scrape_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "GET /metrics round trip (Prometheus text encode of the whole registry)", Moves: "none"},
	{Name: "service.metrics_bytes", Unit: "B", Better: "lower", Source: "probe",
		Doc: "size of one /metrics scrape (histogram sums are timings, so it moves by a few bytes)", Moves: "none"},
	{Name: "service.resp_bytes", Unit: "B", Better: "lower", Count: true, Source: "probe",
		Doc: "mean /v1/estimate response size", Moves: "op_p50_ms on serve_*"},
	{Name: "service.coalesce_join_share", Unit: "ratio", Better: "higher", Source: "round",
		Doc: "requests that joined another request's simulation / requests (counted, but a pair only coalesces if its halves overlap, so it does not repeat exactly)", Moves: "cpu_s_per_op, ops_per_s on serve_dup only"},
	{Name: "service.sims_per_request", Unit: "ratio", Better: "lower", Source: "round",
		Doc: "simulation runs / HTTP estimate requests (1 on serve_unique, about 0.5 on serve_dup)", Moves: "cpu_s_per_op on serve_dup"},
	{Name: "service.shed_count", Unit: "count", Better: "lower", Count: true, Source: "round",
		Doc: "requests refused with 503 by the concurrency limiter", Moves: "failed ops on serve_*"},

	// engine: the library facade.
	{Name: "engine.estimate_p50_ms", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "median in-process Engine.Estimate on the service probe's bodies", Moves: "op_p50_ms on serve_unique"},
	{Name: "engine.new_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "NewEngine(): registry + instrumentation construction", Moves: "ops_per_s on sweep_recall"},

	// experiments: sweep cells and warm-up sharing.
	{Name: "experiments.cell_accuracy_ms", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "cold Cell.Run of one accuracy cell on an empty cache", Moves: "ops_per_s, cpu_s_per_op on sweep_cold"},
	{Name: "experiments.cell_partitioning_ms", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "cold Cell.Run of one partitioning cell", Moves: "ops_per_s on sweep_cold"},
	{Name: "experiments.cell_scenario_ms", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "cold Cell.Run of one scenario cell", Moves: "ops_per_s on sweep_cold"},
	{Name: "experiments.enumerate_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "EnumerateSweepCells over the 38-cell grid", Moves: "ops_per_s on sweep_recall"},
	{Name: "experiments.prefix_runs", Unit: "count", Better: "lower", Count: true, Source: "round",
		Doc: "warm-up prefix simulations executed in the round", Moves: "ops_per_s on sweep_cold"},
	{Name: "experiments.forks", Unit: "count", Better: "higher", Count: true, Source: "round",
		Doc: "cells seeded from a shared warm-up checkpoint in the round", Moves: "ops_per_s on sweep_cold"},
	{Name: "experiments.cold_fallbacks", Unit: "count", Better: "lower", Count: true, Source: "round",
		Doc: "cells that ran cold despite warm-up sharing", Moves: "ops_per_s on sweep_cold"},

	// runner: spec keys, the two-tier cache, the worker pool.
	{Name: "runner.speckey_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "SpecKey of one sweep-cell spec (JSON + SHA-256)", Moves: "ops_per_s on sweep_recall"},
	{Name: "runner.memo_mem_hit_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "Memo on a memory-resident rows entry", Moves: "ops_per_s on sweep_recall"},
	{Name: "runner.memo_disk_hit_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "Memo answered by the disk tier, rows-sized entry (read + JSON decode)", Moves: "ops_per_s on sweep_recall; none on sim_*"},
	{Name: "runner.memo_disk_hit_ckpt_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "Memo answered by the disk tier, checkpoint-sized entry", Moves: "ops_per_s on sweep_recall"},
	{Name: "runner.memo_miss_store_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "Memo miss with a trivial computation: encode + fsync'd write", Moves: "ops_per_s on sweep_cold; none on sim_*"},
	{Name: "runner.evict_spill_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "Put into a starved memory budget: evict + spill of the previous entry", Moves: "none: no workload bounds the cache"},
	{Name: "runner.pool_job_overhead_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "runner.Run wall time per no-op job", Moves: "ops_per_s on sweep_recall"},
	{Name: "runner.cache_mem_hits", Unit: "count", Better: "higher", Count: true, Source: "round",
		Doc: "lookups answered from memory or by joining a concurrent computation of the same key (which of the two is a race; the sum repeats)", Moves: "ops_per_s on sweep_*"},
	{Name: "runner.cache_disk_hits", Unit: "count", Better: "higher", Count: true, Source: "round",
		Doc: "disk-tier hits in the round", Moves: "ops_per_s on sweep_recall"},
	{Name: "runner.cache_misses", Unit: "count", Better: "lower", Count: true, Source: "round",
		Doc: "cache misses (computations run) in the round", Moves: "ops_per_s on sweep_cold"},
	{Name: "runner.cache_disk_bytes", Unit: "B", Better: "lower", Count: true, Source: "round",
		Doc: "bytes persisted to the disk tier in the round", Moves: "ops_per_s on sweep_cold"},
	{Name: "runner.cache_hit_share", Unit: "ratio", Better: "higher", Count: true, Source: "round",
		Doc: "hits / (hits + misses) over both tiers and in-flight joins", Moves: "ops_per_s on sweep_*"},

	// journal: the crash-safe sweep journal.
	{Name: "journal.append_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "one framed append including its fsync", Moves: "ops_per_s on sweep_cold"},
	{Name: "journal.load_us_per_record", Unit: "us", Better: "lower", Source: "probe",
		Doc: "journal.Load (read + CRC + decode) per record", Moves: "ops_per_s on sweep_recall"},
	{Name: "journal.bytes_per_cell", Unit: "B", Better: "lower", Count: true, Source: "probe",
		Doc: "journal file bytes per recorded cell", Moves: "ops_per_s on sweep_recall"},

	// dispatch: the fleet wire protocol.
	{Name: "dispatch.wire_us_per_cell", Unit: "us", Better: "lower", Source: "probe",
		Doc: "grid through one warm loopback worker minus the same warm grid locally, per cell", Moves: "no workload yet: sweep_fleet is left to the first change that touches the wire"},
	{Name: "dispatch.retries", Unit: "count", Better: "lower", Count: true, Source: "probe",
		Doc: "worker failures during the wire probe", Moves: "none"},

	// sim: the simulator, measured through Engine.Run/Checkpoint/RunFromCheckpoint.
	{Name: "sim.processed_share", Unit: "ratio", Better: "higher", Count: true, Source: "round",
		Doc: "1 - fast-forwarded/total cycles in the round; must be >= 0.55 on sim_dense and <= 0.15 on sim_sparse", Moves: "tells which of ns_per_processed_cycle / ns_per_cycle governs the workload"},
	{Name: "sim.ns_per_cycle", Unit: "ns/cycle", Better: "lower", Source: "round",
		Doc: "host time inside the round's simulation-calling spans per simulated cycle", Moves: "ops_per_s on sim_sparse"},
	{Name: "sim.ns_per_processed_cycle", Unit: "ns/cycle", Better: "lower", Source: "round",
		Doc: "the same host time per cycle that was actually ticked (not fast-forwarded)", Moves: "ops_per_s on sim_dense"},
	{Name: "sim.intervals_per_s", Unit: "1/s", Better: "higher", Source: "round",
		Doc: "accounting intervals recorded per second of that host time", Moves: "ops_per_s on sim_*"},
	{Name: "sim.setup_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "Engine.Run with a 1-instruction sample: state construction and tear-down", Moves: "op_p50_ms on serve_unique"},
	{Name: "sim.ms_per_op.compute-heavy", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "one sim_dense operation (4 cores)", Moves: "ops_per_s on sim_dense"},
	{Name: "sim.ms_per_op.latency-bound", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "one sim_sparse operation of this scenario", Moves: "ops_per_s on sim_sparse"},
	{Name: "sim.ms_per_op.pointer-chase", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "one sim_sparse operation of this scenario", Moves: "ops_per_s on sim_sparse"},
	{Name: "sim.ms_per_op.cache-thrash", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "one sim_sparse operation of this scenario", Moves: "ops_per_s on sim_sparse"},
	{Name: "sim.ms_per_op.bandwidth-bound", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "one sim_sparse operation of this scenario", Moves: "ops_per_s on sim_sparse"},
	{Name: "sim.ref_ns_per_cycle", Unit: "ns/cycle", Better: "lower", Source: "probe",
		Doc: "cycle-by-cycle reference driver on a small fixed fixture", Moves: "none: the reference is the test oracle"},
	{Name: "sim.fast_over_ref", Unit: "ratio", Better: "higher", Source: "probe",
		Doc: "reference time / event-driven time on that fixture", Moves: "ops_per_s on sim_sparse"},
	{Name: "sim.checkpoint_encode_ms", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "JSON encode of one warm-up checkpoint", Moves: "ops_per_s on sweep_cold"},
	{Name: "sim.checkpoint_decode_ms", Unit: "ms", Better: "lower", Source: "probe",
		Doc: "JSON decode of that checkpoint", Moves: "ops_per_s on sweep_cold"},
	{Name: "sim.checkpoint_kb", Unit: "KB", Better: "lower", Count: true, Source: "probe",
		Doc: "encoded checkpoint size", Moves: "runner.cache_disk_bytes on sweep_cold"},
	{Name: "sim.fork_over_cold", Unit: "ratio", Better: "lower", Source: "probe",
		Doc: "RunFromCheckpoint time / cold Run time of the same cell", Moves: "ops_per_s on sweep_cold"},
	{Name: "sim.par2_over_serial", Unit: "ratio", Better: "higher", Source: "probe",
		Doc: "serial time / Workers=2 time, 16-core compute-heavy; informational below 4 CPUs", Moves: "none: no workload uses the parallel driver"},

	// accounting: what each technique adds to the dense fixture, and its error.
	{Name: "accounting.none_ns_per_cycle", Unit: "ns/cycle", Better: "lower", Source: "probe",
		Doc: "dense fixture with no accountant attached", Moves: "ops_per_s on sim_dense"},
	{Name: "accounting.gdp_added_share", Unit: "ratio", Better: "lower", Source: "probe",
		Doc: "time added by GDP over the no-accountant run", Moves: "ops_per_s on sim_dense"},
	{Name: "accounting.gdpo_added_share", Unit: "ratio", Better: "lower", Source: "probe",
		Doc: "time added by GDP-O", Moves: "ops_per_s on sim_dense"},
	{Name: "accounting.itca_added_share", Unit: "ratio", Better: "lower", Source: "probe",
		Doc: "time added by ITCA", Moves: "ops_per_s on sim_dense"},
	{Name: "accounting.ptca_added_share", Unit: "ratio", Better: "lower", Source: "probe",
		Doc: "time added by PTCA", Moves: "ops_per_s on sim_dense"},
	{Name: "accounting.asm_added_share", Unit: "ratio", Better: "lower", Source: "probe",
		Doc: "time added by ASM (invasive: it also changes the simulated cycles)", Moves: "op_p50_ms on serve_unique"},
	{Name: "accounting.est_err_gdpo_pct", Unit: "%", Better: "lower", Count: true, Source: "probe",
		Doc: "GDP-O mean IPC relative RMS error against the private-mode reference over the probe cells: the paper's headline; must not move for a pure speed-up", Moves: "none"},
	{Name: "accounting.err_gdp_pct", Unit: "%", Better: "lower", Count: true, Source: "probe",
		Doc: "the same error for GDP", Moves: "none"},
	{Name: "accounting.err_itca_pct", Unit: "%", Better: "lower", Count: true, Source: "probe",
		Doc: "the same error for ITCA", Moves: "none"},
	{Name: "accounting.err_ptca_pct", Unit: "%", Better: "lower", Count: true, Source: "probe",
		Doc: "the same error for PTCA", Moves: "none"},
	{Name: "accounting.err_asm_pct", Unit: "%", Better: "lower", Count: true, Source: "probe",
		Doc: "the same error for ASM", Moves: "none"},
	{Name: "accounting.stall_err_gdpo", Unit: "cycles", Better: "lower", Count: true, Source: "probe",
		Doc: "GDP-O mean absolute RMS error of the SMS stall estimate", Moves: "none"},

	// trace / workload: instruction streams.
	{Name: "trace.gen_ns_per_instr", Unit: "ns/instr", Better: "lower", Source: "probe",
		Doc: "synthetic generator Next()", Moves: "ops_per_s on sim_dense"},
	{Name: "trace.record_ns_per_instr", Unit: "ns/instr", Better: "lower", Source: "probe",
		Doc: "trace.Record to memory (encode + gzip)", Moves: "none"},
	{Name: "trace.replay_ns_per_instr", Unit: "ns/instr", Better: "lower", Source: "probe",
		Doc: "decode a recording and replay it", Moves: "none"},
	{Name: "trace.bytes_per_instr", Unit: "B/instr", Better: "lower", Count: true, Source: "probe",
		Doc: "recorded bytes per instruction", Moves: "none"},
	{Name: "workload.generate_us", Unit: "us", Better: "lower", Source: "probe",
		Doc: "workload.Generate of 8 four-core H workloads", Moves: "ops_per_s on sweep_cold"},

	// runtime: the host process during the traced round.
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower", Source: "round",
		Doc: "heap bytes allocated per operation", Moves: "cpu_s_per_op, peak_rss_mb everywhere"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Source: "round",
		Doc: "garbage collections during the round", Moves: "cpu_s_per_op everywhere"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Source: "round",
		Doc: "total stop-the-world pause during the round", Moves: "op_p90_ms everywhere"},

	// bench: the harness itself.
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Source: "round",
		Doc: "traced round wall time / untraced round wall time - 1 (the traced round also walks layer by layer)", Moves: "none: end-to-end numbers come from untraced runs"},
	{Name: "bench.round_mad_share", Unit: "ratio", Better: "lower", Source: "round",
		Doc: "median absolute deviation of the traced run's round times / their median", Moves: "none"},
	{Name: "bench.calib_drift_share", Unit: "ratio", Better: "lower", Source: "round",
		Doc: "slowest / fastest calibration-kernel time of the run - 1", Moves: "none"},
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one run measures under the acceptance driver.
const runSeconds = 10

// buildManifest renders the catalogue as BENCHMARK.json.
func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(buildManifest())
}

// printList prints every metric with its unit, direction, bound and source,
// and every workload with the reason it exists.
func printList(w io.Writer) {
	fmt.Fprintf(w, "WORKLOADS (closed loop; clients = min(nproc, 2) unless stated)\n")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-13s %s\n", wl.name, wl.why)
	}
	fmt.Fprintf(w, "\nEND-TO-END (untraced runs; every workload reports every metric)\n")
	fmt.Fprintf(w, "  %-20s %-9s %-7s %-6s %s\n", "name", "unit", "better", "bound", "definition")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-20s %-9s %-7s %-6s %s\n", d.Name, d.Unit, d.Better, fmt.Sprintf("%.0f%%", d.Bound*100), d.Doc)
	}
	fmt.Fprintf(w, "\nPER-LAYER (traced runs; no bound; 'count' repeats exactly for a seed)\n")
	fmt.Fprintf(w, "  %-33s %-9s %-7s %-6s %-6s %s\n", "name", "unit", "better", "kind", "source", "definition -> expected to move")
	for _, d := range perLayer {
		kind := "time"
		if d.Count {
			kind = "count"
		}
		fmt.Fprintf(w, "  %-33s %-9s %-7s %-6s %-6s %s -> %s\n", d.Name, d.Unit, d.Better, kind, d.Source, d.Doc, d.Moves)
	}
}
