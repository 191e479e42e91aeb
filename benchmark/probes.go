package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	gdp "repro"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/runner"
)

// The layer probes are the part of a traced run that does not depend on the
// workload: small fixed fixtures, one per layer, each driven through the
// layer's public functions with a span around every call. They give every
// traced run a real number for every layer, including the layers its
// workload never reaches — which is what lets a later change show that the
// layer it touched moved and the others did not.
//
// Probe fixtures derive their seeds from -seed like everything else. Each
// timing is the median of a handful of repetitions; they are per-layer
// metrics, so none of them carries a bound.
const (
	probeServeOps       = 100 // paired round trips: p90 has ten samples beyond it
	probeDenseInstr     = 8000
	probeRefInstr       = 500
	probeCkptInstr      = 3000
	probeCkptInterval   = 1000
	probeCkptWarmup     = 4
	probePar2Cores      = 16
	probePar2Instr      = 1000
	probeTraceInstr     = 50000
	probeGenInstr       = 200000
	probeJournalRecords = 40
	probeDiskEntries    = 40
	probePoolJobs       = 2000
)

type prober struct {
	ctx     context.Context
	e       env
	rec     *spanRecorder
	metrics map[string]float64
	dir     string
	nextOp  int
	// checkpoint caches takeCheckpoint.
	checkpoint *gdp.Checkpoint
}

// seed returns the probe suite's i-th derived seed.
func (p *prober) seed(i int) int64 { return deriveSeed(p.e.seed, streamProbe, i) }

// timed calls fn n times, each inside a span, and returns the durations in
// microseconds.
func (p *prober) timed(name string, n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		p.nextOp++
		var err error
		start := nowNS()
		p.rec.time(-p.nextOp, 0, "probe."+name, func(int) { err = fn(i) })
		out = append(out, float64(nowNS()-start)/1e3)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return out, nil
}

// medianUS is timed reduced to its median.
func (p *prober) medianUS(name string, n int, fn func(i int) error) (float64, error) {
	d, err := p.timed(name, n, fn)
	return median(d), err
}

// runProbes drives every layer probe and returns the per-layer metrics whose
// source is "probe".
func runProbes(ctx context.Context, e env, rec *spanRecorder) (map[string]float64, error) {
	dir, err := os.MkdirTemp(e.dir, "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &prober{ctx: ctx, e: e, rec: rec, metrics: map[string]float64{}, dir: dir}
	for _, probe := range []func() error{
		p.service, p.engine, p.cells, p.runner, p.journal, p.dispatch, p.sim, p.accounting, p.trace,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.metrics, nil
}

// service pairs loopback round trips with in-process estimates on the same
// bodies, then times the cheap endpoints.
func (p *prober) service() error {
	f, err := newServeFixture(env{seed: p.seed(1), clients: 1}, false, probeServeOps)
	if err != nil {
		return err
	}
	defer f.close()
	// Interleaved, so that each pair meets the same machine state.
	var respBytes int
	var rtt, direct []float64
	for i := 0; i < probeServeOps; i++ {
		d, err := p.timed("service.roundtrip", 1, func(int) error {
			status, raw, err := f.post(p.ctx, "/v1/estimate", f.bodies[0][i])
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			respBytes += len(raw)
			return err
		})
		if err != nil {
			return err
		}
		rtt = append(rtt, d[0])
		if d, err = p.timed("engine.estimate", 1, func(int) error {
			_, err := f.direct.Estimate(p.ctx, &f.reqs[0][i])
			return err
		}); err != nil {
			return err
		}
		direct = append(direct, d[0])
	}
	overhead := make([]float64, len(rtt))
	for i := range rtt {
		overhead[i] = rtt[i] - direct[i]
	}
	p.metrics["service.rtt_p50_ms"] = percentile(rtt, 50) / 1e3
	p.metrics["service.rtt_p90_ms"] = percentile(rtt, 90) / 1e3
	p.metrics["service.overhead_us"] = median(overhead)
	p.metrics["service.overhead_share"] = median(overhead) / median(rtt)
	p.metrics["service.resp_bytes"] = float64(respBytes) / probeServeOps
	p.metrics["engine.estimate_p50_ms"] = median(direct) / 1e3

	bad := []byte(`{"cores":2,"scenario":"compute-heavy","technique":"no-such-technique"}`)
	if p.metrics["service.badreq_rtt_us"], err = p.medianUS("service.badreq", 50, func(int) error {
		status, _, err := f.post(p.ctx, "/v1/estimate", bad)
		if err == nil && status != http.StatusBadRequest {
			err = fmt.Errorf("bad request answered with status %d", status)
		}
		return err
	}); err != nil {
		return err
	}
	if p.metrics["service.healthz_rtt_us"], err = p.medianUS("service.healthz", 50, func(int) error {
		_, _, err := f.get(p.ctx, "/healthz")
		return err
	}); err != nil {
		return err
	}
	p.metrics["service.metrics_scrape_us"], err = p.medianUS("service.metrics_scrape", 20, func(int) error {
		_, raw, err := f.get(p.ctx, "/metrics")
		p.metrics["service.metrics_bytes"] = float64(len(raw))
		return err
	})
	return err
}

func (p *prober) engine() error {
	var err error
	p.metrics["engine.new_us"], err = p.medianUS("engine.new", 50, func(int) error {
		_, err := gdp.NewEngine()
		return err
	})
	return err
}

// cells runs one cold cell of each kind and reads the accounting errors off
// the accuracy and scenario rows.
func (p *prober) cells() error {
	grid := sweepGrid(p.seed(2))
	var cells []experiments.Cell
	us, err := p.medianUS("experiments.enumerate", 100, func(int) error {
		cells = experiments.EnumerateSweepCells(grid)
		return nil
	})
	if err != nil {
		return err
	}
	p.metrics["experiments.enumerate_us"] = us

	// The first cell of each kind on 2 cores at the largest PRB.
	picked := map[string]experiments.Cell{}
	for _, c := range cells {
		if _, ok := picked[c.Kind]; !ok && c.Cores == 2 && (c.PRB == 0 || c.PRB == 32) {
			picked[c.Kind] = c
		}
	}
	errSum, errN := map[string]float64{}, 0
	var stallGDPO float64
	for _, kind := range []string{experiments.CellKindAccuracy, experiments.CellKindPartitioning, experiments.CellKindScenario} {
		cell, ok := picked[kind]
		if !ok {
			return fmt.Errorf("the grid has no 2-core %s cell", kind)
		}
		var rows []gdp.SweepRow
		us, err := p.medianUS("experiments.cell_run."+kind, 3, func(int) error {
			engine, err := gdp.NewEngine()
			if err != nil {
				return err
			}
			rows, err = cell.Run(p.ctx, experiments.CellConfig{Cache: engine.Cache(), Instr: engine.Scale().Instr})
			return err
		})
		if err != nil {
			return err
		}
		p.metrics["experiments.cell_"+kind+"_ms"] = us / 1e3
		if bad := checkRows(rows); bad != "" {
			return fmt.Errorf("probe cell %s: %s", cell.Label(), bad)
		}
		if kind == experiments.CellKindPartitioning {
			continue
		}
		errN++
		for _, r := range rows {
			errSum[r.Name] += r.MeanIPCRelRMS
			if r.Name == "GDP-O" {
				stallGDPO += r.MeanStallAbsRMS
			}
		}
	}
	for metric, technique := range map[string]string{
		"accounting.est_err_gdpo_pct": "GDP-O", "accounting.err_gdp_pct": "GDP",
		"accounting.err_itca_pct": "ITCA", "accounting.err_ptca_pct": "PTCA", "accounting.err_asm_pct": "ASM",
	} {
		p.metrics[metric] = errSum[technique] / float64(errN)
	}
	p.metrics["accounting.stall_err_gdpo"] = stallGDPO / float64(errN)
	return nil
}

// probeRows is a rows-sized cache/journal payload: one accuracy cell's worth.
var probeRows = func() []gdp.SweepRow {
	rows := make([]gdp.SweepRow, 0, 5)
	for i, name := range serveTechniques {
		rows = append(rows, gdp.SweepRow{Cores: 4, Mix: "H", PRB: 32, Kind: experiments.CellKindAccuracy, Name: name,
			MeanIPCAbsRMS: 0.0123 * float64(i+1), MeanIPCRelRMS: 7.89 * float64(i+1), MeanStallAbsRMS: 1234.5 * float64(i+1)})
	}
	return rows
}()

// probeSpec keys the runner probes' cache entries.
type probeSpec struct {
	Op string `json:"op"`
	K  int    `json:"k"`
}

// memoRows looks spec up in c (computing probeRows on a miss) and fails
// unless the lookup was, or was not, a hit as expected.
func memoRows(c *runner.Cache, spec probeSpec, wantHit bool) error {
	_, hit, err := runner.Memo(c, spec, func() ([]gdp.SweepRow, error) { return probeRows, nil })
	if err == nil && hit != wantHit {
		err = fmt.Errorf("cache lookup %+v: hit = %v, expected %v", spec, hit, wantHit)
	}
	return err
}

// checkpointFixture is the run whose warm-up checkpoint sizes the codec and
// fork probes.
func (p *prober) checkpointFixture() simOp {
	return simOp{scenario: "bursty", cores: 4, instructions: probeCkptInstr, interval: probeCkptInterval,
		seed: p.seed(3), techniques: transparentTechniques}
}

// takeCheckpoint simulates the fixture's warm-up prefix once; the runner and
// sim probes share the snapshot.
func (p *prober) takeCheckpoint() (*gdp.Checkpoint, error) {
	if p.checkpoint != nil {
		return p.checkpoint, nil
	}
	engine, err := gdp.NewEngine()
	if err != nil {
		return nil, err
	}
	var out simOutcome
	opts, err := p.checkpointFixture().options(nil, 0, 0, &out)
	if err != nil {
		return nil, err
	}
	p.checkpoint, err = engine.Checkpoint(p.ctx, opts, probeCkptWarmup*probeCkptInterval)
	return p.checkpoint, err
}

func (p *prober) runner() error {
	cellSpec := experiments.EnumerateSweepCells(sweepGrid(p.seed(2)))[0].Spec()
	var err error
	if p.metrics["runner.speckey_us"], err = p.medianUS("runner.speckey", 1000, func(int) error {
		_, err := runner.SpecKey(cellSpec)
		return err
	}); err != nil {
		return err
	}

	mem := runner.NewCache()
	if err := memoRows(mem, probeSpec{"mem", 0}, false); err != nil {
		return err
	}
	if p.metrics["runner.memo_mem_hit_us"], err = p.medianUS("runner.memo_mem_hit", 1000, func(int) error {
		return memoRows(mem, probeSpec{"mem", 0}, true)
	}); err != nil {
		return err
	}

	// Miss + store, then the same entries read back through a new cache
	// object: the memory tier is empty, so every lookup is a disk hit.
	diskDir := filepath.Join(p.dir, "disk")
	writer, err := runner.NewDiskCache(diskDir)
	if err != nil {
		return err
	}
	if p.metrics["runner.memo_miss_store_us"], err = p.medianUS("runner.memo_miss_store", probeDiskEntries, func(i int) error {
		return memoRows(writer, probeSpec{"disk", i}, false)
	}); err != nil {
		return err
	}
	reader, err := runner.NewDiskCache(diskDir)
	if err != nil {
		return err
	}
	if p.metrics["runner.memo_disk_hit_us"], err = p.medianUS("runner.memo_disk_hit", probeDiskEntries, func(i int) error {
		return memoRows(reader, probeSpec{"disk", i}, true)
	}); err != nil {
		return err
	}

	cp, err := p.takeCheckpoint()
	if err != nil {
		return err
	}
	const ckptEntries = 5
	for i := 0; i < ckptEntries; i++ {
		writer.Put(mustKey(probeSpec{"ckpt", i}), cp)
	}
	if reader, err = runner.NewDiskCache(diskDir); err != nil {
		return err
	}
	if p.metrics["runner.memo_disk_hit_ckpt_us"], err = p.medianUS("runner.memo_disk_hit_ckpt", ckptEntries, func(i int) error {
		_, hit, err := runner.Memo(reader, probeSpec{"ckpt", i}, func() (*gdp.Checkpoint, error) {
			return nil, fmt.Errorf("checkpoint entry %d missing from the disk tier", i)
		})
		if err == nil && !hit {
			err = fmt.Errorf("expected a disk hit")
		}
		return err
	}); err != nil {
		return err
	}

	// A memory budget smaller than two entries: every Put evicts the one
	// before it (and would spill it, had its write-through failed).
	starved, err := runner.NewDiskCache(filepath.Join(p.dir, "starved"))
	if err != nil {
		return err
	}
	starved.SetMaxBytes(1024)
	if p.metrics["runner.evict_spill_us"], err = p.medianUS("runner.evict_spill", probeDiskEntries, func(i int) error {
		starved.Put(mustKey(probeSpec{"starved", i}), probeRows)
		return nil
	}); err != nil {
		return err
	}

	jobs := make([]runner.Job[int], probePoolJobs)
	for i := range jobs {
		jobs[i] = runner.Job[int]{Fn: func(context.Context) (int, error) { return i, nil }}
	}
	us, err := p.medianUS("runner.pool_noop_jobs", 3, func(int) error {
		_, err := runner.Run(p.ctx, jobs, runner.Options{Workers: p.e.clients})
		return err
	})
	p.metrics["runner.pool_job_overhead_us"] = us / probePoolJobs
	return err
}

func mustKey(spec any) string {
	key, err := runner.SpecKey(spec)
	if err != nil {
		panic(err) // the probe's own spec structs always marshal
	}
	return key
}

func (p *prober) journal() error {
	path := filepath.Join(p.dir, "probe.journal")
	rows, err := json.Marshal(probeRows)
	if err != nil {
		return err
	}
	w, err := journal.Create(path)
	if err != nil {
		return err
	}
	p.metrics["journal.append_us"], err = p.medianUS("journal.append", probeJournalRecords, func(i int) error {
		return w.Append(journal.Record{Kind: journal.KindCell, Key: mustKey(i), Label: fmt.Sprintf("accuracy/4c-H/prb%d", i), Rows: rows})
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	us, err := p.medianUS("journal.load", 10, func(int) error {
		res, err := journal.Load(path)
		if err == nil && res.Count != probeJournalRecords {
			err = fmt.Errorf("loaded %d records, appended %d", res.Count, probeJournalRecords)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.metrics["journal.load_us_per_record"] = us / probeJournalRecords
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.metrics["journal.bytes_per_cell"] = float64(fi.Size()) / probeJournalRecords
	return nil
}

// dispatch prices the wire: a small grid answered entirely from the cache of
// one loopback worker, minus the same grid answered from that cache locally.
func (p *prober) dispatch() error {
	grid := gdp.SweepOptions{
		CoreCounts: []int{2}, Mixes: []gdp.MixKind{gdp.MixH}, PRBSizes: []int{4, 8, 16, 32}, Scenarios: []string{"bursty"},
		Workloads: 1, InstructionsPerCore: sweepInstructions, IntervalCycles: sweepInterval,
		Seed: p.seed(4), WarmupIntervals: sweepWarmup,
	}
	worker, err := newServeFixture(env{seed: p.seed(4), clients: 1}, false, 1)
	if err != nil {
		return err
	}
	defer worker.close()
	var warm *gdp.SweepResult
	if _, err := p.timed("dispatch.warm_worker", 1, func(int) error {
		warm, err = worker.engine.Sweep(p.ctx, grid)
		return err
	}); err != nil {
		return err
	}
	local, err := p.medianUS("dispatch.local_warm_grid", 5, func(int) error {
		_, err := worker.engine.Sweep(p.ctx, grid)
		return err
	})
	if err != nil {
		return err
	}
	var failures float64
	wire, err := p.medianUS("dispatch.wire_warm_grid", 5, func(int) error {
		front, err := gdp.NewEngine()
		if err != nil {
			return err
		}
		res, err := front.SweepWorkers(p.ctx, grid, []string{worker.url})
		if err != nil {
			return err
		}
		if rowsDigest(res.Rows) != rowsDigest(warm.Rows) {
			return fmt.Errorf("rows through the worker differ from the worker's own rows")
		}
		failures += engineCounts(front)["dispatch_failures"]
		return nil
	})
	if err != nil {
		return err
	}
	p.metrics["dispatch.wire_us_per_cell"] = (wire - local) / float64(warm.Cells)
	p.metrics["dispatch.retries"] = failures
	return nil
}

// simRun runs op on a fresh engine, optionally mutating its options, and
// returns the median wall time of `repeats` runs in microseconds and the
// simulated cycles.
func (p *prober) simRun(name string, op simOp, repeats int, mutate func(*gdp.SimOptions)) (float64, uint64, error) {
	engine, err := gdp.NewEngine()
	if err != nil {
		return 0, 0, err
	}
	var cycles uint64
	us, err := p.medianUS(name, repeats, func(int) error {
		var out simOutcome
		opts, err := op.options(nil, 0, 0, &out)
		if err != nil {
			return err
		}
		if mutate != nil {
			mutate(&opts)
		}
		res, err := engine.Run(p.ctx, opts)
		if err == nil {
			cycles = res.Cycles
		}
		return err
	})
	return us, cycles, err
}

func (p *prober) sim() error {
	engine, err := gdp.NewEngine()
	if err != nil {
		return err
	}
	one := simOp{scenario: denseScenario, cores: 4, instructions: 1, interval: simInterval, seed: p.seed(5), techniques: transparentTechniques}
	if p.metrics["sim.setup_us"], err = p.medianUS("sim.run_1_instruction", 20, func(int) error {
		_, err := one.run(p.ctx, engine, nil, 0, 0)
		return err
	}); err != nil {
		return err
	}

	perScenario := []simOp{{scenario: denseScenario, cores: 4, instructions: denseInstructions, interval: simInterval, seed: p.seed(6), techniques: transparentTechniques}}
	for i, sc := range sparseScenarios {
		perScenario = append(perScenario, simOp{scenario: sc, cores: sparseCores, instructions: sparseInstruction, interval: simInterval, seed: p.seed(7 + i), techniques: transparentTechniques})
	}
	for _, op := range perScenario {
		us, _, err := p.simRun("sim.run."+op.scenario, op, 1, nil)
		if err != nil {
			return err
		}
		p.metrics["sim.ms_per_op."+op.scenario] = us / 1e3
	}

	refOp := simOp{scenario: "latency-bound", cores: 2, instructions: probeRefInstr, interval: simInterval, seed: p.seed(12), techniques: transparentTechniques}
	refUS, refCycles, err := p.simRun("sim.run_reference", refOp, 1, func(o *gdp.SimOptions) { o.Reference = true })
	if err != nil {
		return err
	}
	fastUS, fastCycles, err := p.simRun("sim.run_fast", refOp, 3, nil)
	if err != nil {
		return err
	}
	if refCycles != fastCycles {
		return fmt.Errorf("reference driver simulated %d cycles, event driver %d", refCycles, fastCycles)
	}
	p.metrics["sim.ref_ns_per_cycle"] = refUS * 1e3 / float64(refCycles)
	p.metrics["sim.fast_over_ref"] = refUS / fastUS

	// Checkpoint codec and fork.
	cp, err := p.takeCheckpoint()
	if err != nil {
		return err
	}
	var raw []byte
	if p.metrics["sim.checkpoint_encode_ms"], err = p.medianUS("sim.checkpoint_encode", 5, func(int) error {
		raw, err = json.Marshal(cp)
		return err
	}); err != nil {
		return err
	}
	if p.metrics["sim.checkpoint_decode_ms"], err = p.medianUS("sim.checkpoint_decode", 5, func(int) error {
		return json.Unmarshal(raw, new(gdp.Checkpoint))
	}); err != nil {
		return err
	}
	p.metrics["sim.checkpoint_encode_ms"] /= 1e3
	p.metrics["sim.checkpoint_decode_ms"] /= 1e3
	p.metrics["sim.checkpoint_kb"] = float64(len(raw)) / 1024
	ckOp := p.checkpointFixture()
	coldUS, coldCycles, err := p.simRun("sim.run_cold", ckOp, 3, nil)
	if err != nil {
		return err
	}
	var forkCycles uint64
	forkUS, err := p.medianUS("sim.run_from_checkpoint", 3, func(int) error {
		var out simOutcome
		opts, err := ckOp.options(nil, 0, 0, &out)
		if err != nil {
			return err
		}
		res, err := engine.RunFromCheckpoint(p.ctx, opts, cp)
		if err == nil {
			forkCycles = res.Cycles
		}
		return err
	})
	if err != nil {
		return err
	}
	if forkCycles != coldCycles {
		return fmt.Errorf("fork simulated %d cycles, the cold run %d", forkCycles, coldCycles)
	}
	p.metrics["sim.fork_over_cold"] = forkUS / coldUS

	parOp := simOp{scenario: denseScenario, cores: probePar2Cores, instructions: probePar2Instr, interval: simInterval, seed: p.seed(13), techniques: []string{"GDP-O"}}
	serialUS, serialCycles, err := p.simRun("sim.run_16c_serial", parOp, 1, nil)
	if err != nil {
		return err
	}
	par2US, par2Cycles, err := p.simRun("sim.run_16c_workers2", parOp, 1, func(o *gdp.SimOptions) { o.Workers = 2 })
	if err != nil {
		return err
	}
	if serialCycles != par2Cycles {
		return fmt.Errorf("parallel driver simulated %d cycles, serial %d", par2Cycles, serialCycles)
	}
	p.metrics["sim.par2_over_serial"] = serialUS / par2US
	return nil
}

// accounting runs the dense fixture with no accountant and with each one
// alone; the difference is what the technique adds. The variants are
// interleaved and each keeps its fastest run: interference only ever adds
// time, and a difference of two medians would carry the noise of both.
func (p *prober) accounting() error {
	variants := []struct {
		metric     string
		techniques []string
	}{
		{"", nil},
		{"accounting.gdp_added_share", []string{"GDP"}},
		{"accounting.gdpo_added_share", []string{"GDP-O"}},
		{"accounting.itca_added_share", []string{"ITCA"}},
		{"accounting.ptca_added_share", []string{"PTCA"}},
		{"accounting.asm_added_share", []string{"ASM"}},
	}
	const repeats = 4
	best := make([]float64, len(variants))
	var noneCycles uint64
	for rep := 0; rep < repeats; rep++ {
		for i, v := range variants {
			op := simOp{scenario: denseScenario, cores: 4, instructions: probeDenseInstr, interval: simInterval, seed: p.seed(14), techniques: v.techniques}
			name := "none"
			if len(v.techniques) > 0 {
				name = v.techniques[0]
			}
			us, cycles, err := p.simRun("accounting.run_"+name, op, 1, nil)
			if err != nil {
				return err
			}
			if rep == 0 || us < best[i] {
				best[i] = us
			}
			if i == 0 {
				noneCycles = cycles
			}
		}
	}
	p.metrics["accounting.none_ns_per_cycle"] = best[0] * 1e3 / float64(noneCycles)
	for i, v := range variants[1:] {
		p.metrics[v.metric] = best[i+1]/best[0] - 1
	}
	return nil
}

func (p *prober) trace() error {
	bench := gdp.BenchmarkSuite()[0]
	gen, err := bench.NewGenerator(p.seed(15))
	if err != nil {
		return err
	}
	var sink uint64
	us, err := p.medianUS("trace.generate", 3, func(int) error {
		for i := 0; i < probeGenInstr; i++ {
			sink += gen.Next().Addr
		}
		return nil
	})
	if err != nil {
		return err
	}
	keepAlive += sink
	p.metrics["trace.gen_ns_per_instr"] = us * 1e3 / probeGenInstr

	var buf bytes.Buffer
	if us, err = p.medianUS("trace.record", 3, func(int) error {
		buf.Reset()
		return gdp.RecordTrace(&buf, bench.Name, gen, probeTraceInstr)
	}); err != nil {
		return err
	}
	p.metrics["trace.record_ns_per_instr"] = us * 1e3 / probeTraceInstr
	p.metrics["trace.bytes_per_instr"] = float64(buf.Len()) / probeTraceInstr
	if us, err = p.medianUS("trace.replay", 3, func(int) error {
		rp, err := gdp.NewTraceReplayer(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		for i := 0; i < probeTraceInstr; i++ {
			sink += rp.Next().Addr
		}
		return nil
	}); err != nil {
		return err
	}
	keepAlive += sink
	p.metrics["trace.replay_ns_per_instr"] = us * 1e3 / probeTraceInstr

	p.metrics["workload.generate_us"], err = p.medianUS("workload.generate", 30, func(int) error {
		_, err := gdp.GenerateWorkloads(4, gdp.MixH, 8, p.seed(16))
		return err
	})
	return err
}
