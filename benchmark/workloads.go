package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	gdp "repro"
)

// workloads is the benchmark's frozen set. The operation counts below are
// sized so that one round takes about a second on the two-CPU reference box:
// a 10 s run then holds eight to ten rounds and at least a hundred latency
// samples, which is what makes its medians and its p90 steady.
var workloads = []workloadDef{
	{
		name:  "sim_dense",
		why:   "compute-heavy Engine.Run, >=55% of cycles ticked: cpu.Core and accountant ticks dominate; bypasses service, cache, journal and codec",
		setup: func(ctx context.Context, e env) (fixture, error) { return newSimFixture(e, denseOps(e.seed)) },
	},
	{
		name:  "sim_sparse",
		why:   "memory-bound Engine.Run, <=15% of cycles ticked: fast-forward and memsys/ring/DRAM events dominate, so a skip-policy change that helps one sim workload and costs the other shows",
		setup: func(ctx context.Context, e env) (fixture, error) { return newSimFixture(e, sparseOps(e.seed)) },
	},
	{
		name:  "serve_unique",
		why:   "POST /v1/estimate over loopback, every body unique: the whole request path with coalescing and caching unable to help, so it prices the wrapper",
		setup: func(ctx context.Context, e env) (fixture, error) { return newServeFixture(e, false, serveOpsPerClient) },
	},
	{
		name:  "serve_dup",
		why:   "two connections post the same bodies in lock-step: the coalescer's only beneficial case, expected 0.5 simulations per request and about half serve_unique's CPU per op",
		setup: func(ctx context.Context, e env) (fixture, error) { return newServeFixture(e, true, serveOpsPerClient) },
	},
	{
		name:  "sweep_cold",
		why:   "38-cell grid through Engine.Sweep on a fresh disk cache and journal: the researcher's write path (references memoised, warm-up prefixes checkpointed and forked, rows fsynced, journal appended)",
		setup: func(ctx context.Context, e env) (fixture, error) { return newSweepColdFixture(ctx, e) },
	},
	{
		name:  "sweep_recall",
		why:   "warm restarts of the same grid from the disk cache and from the journal: no simulation, so entry decode, journal load and engine construction are the whole cost; a codec or one-store change shows here",
		setup: func(ctx context.Context, e env) (fixture, error) { return newSweepRecallFixture(ctx, e) },
	},
}

// simOp is one in-process simulation.
type simOp struct {
	scenario     string
	cores        int
	instructions uint64
	interval     uint64
	seed         int64
	// techniques lists the accountants to attach, by name.
	techniques []string
}

var transparentTechniques = []string{"GDP", "GDP-O", "ITCA", "PTCA"}

const (
	simPRBEntries = 32
	simInterval   = 4000
	simRoundOps   = 12

	denseScenario     = "compute-heavy"
	denseInstructions = 16000
	sparseCores       = 4
	sparseInstruction = 2000
)

// denseCorePattern puts three quarters of the operations on 2 cores and one
// quarter on 4: the median then lies inside the 2-core cluster and the p90
// inside the 4-core one, instead of on the boundary between two clusters
// (where a percentile flips with the noise).
var denseCorePattern = []int{2, 2, 2, 4}

var sparseScenarios = []string{"latency-bound", "pointer-chase", "cache-thrash", "bandwidth-bound"}

func denseOps(seed int64) []simOp {
	ops := make([]simOp, simRoundOps)
	for i := range ops {
		ops[i] = simOp{
			scenario: denseScenario, cores: denseCorePattern[i%len(denseCorePattern)],
			instructions: denseInstructions, interval: simInterval,
			seed: deriveSeed(seed, streamSimOp, i), techniques: transparentTechniques,
		}
	}
	return ops
}

func sparseOps(seed int64) []simOp {
	ops := make([]simOp, simRoundOps)
	for i := range ops {
		ops[i] = simOp{
			scenario: sparseScenarios[i%len(sparseScenarios)], cores: sparseCores,
			instructions: sparseInstruction, interval: simInterval,
			seed: deriveSeed(seed, streamSimOp, 1000+i), techniques: transparentTechniques,
		}
	}
	return ops
}

// newAccountant builds one accounting technique by its paper name.
func newAccountant(name string, cores int) (gdp.Accountant, error) {
	switch name {
	case "GDP":
		return gdp.NewGDP(cores, simPRBEntries)
	case "GDP-O":
		return gdp.NewGDPO(cores, simPRBEntries)
	case "ITCA":
		return gdp.NewITCA(cores)
	case "PTCA":
		return gdp.NewPTCA(cores)
	case "ASM":
		return gdp.NewASM(cores, 0)
	}
	return nil, fmt.Errorf("unknown technique %q", name)
}

// simOutcome is what one simulation delivered, reduced to what the checks
// and the output digest need.
type simOutcome struct {
	cycles uint64
	// runNS is the host time spent inside Engine.Run.
	runNS int64
	// hash accumulates every interval record; digest is its final value.
	hash   hash.Hash
	digest [sha256.Size]byte
	// bad describes the first estimate that was not finite or the first core
	// whose shared CPI was not positive ("" when every value is sane).
	bad string
}

// options builds the SimOptions of op, with a streaming digest over every
// interval record in place of accumulated intervals. Each of its three steps
// is a call into a different layer, so each gets its own span.
func (op simOp) options(rec *spanRecorder, opID, parent int, out *simOutcome) (gdp.SimOptions, error) {
	var wl gdp.Workload
	var err error
	rec.time(opID, parent, "workload.scenario", func(int) {
		var sc gdp.Scenario
		if sc, err = gdp.ScenarioByName(op.scenario); err == nil {
			wl, err = sc.Workload(op.cores)
		}
	})
	if err != nil {
		return gdp.SimOptions{}, err
	}
	var accts []gdp.Accountant
	rec.time(opID, parent, "accounting.new", func(int) {
		for _, name := range op.techniques {
			var a gdp.Accountant
			if a, err = newAccountant(name, op.cores); err != nil {
				return
			}
			accts = append(accts, a)
		}
	})
	if err != nil {
		return gdp.SimOptions{}, err
	}
	names := append([]string(nil), op.techniques...)
	sort.Strings(names)
	out.hash = sha256.New()
	h := out.hash
	var buf [8 * 5]byte
	return gdp.SimOptions{
		Config:              gdp.ScaledConfig(op.cores),
		Workload:            wl,
		InstructionsPerCore: op.instructions,
		IntervalCycles:      op.interval,
		Seed:                op.seed,
		Accountants:         accts,
		DiscardIntervals:    true,
		OnInterval: func(r gdp.IntervalRecord) error {
			binary.LittleEndian.PutUint64(buf[0:], uint64(r.Core))
			binary.LittleEndian.PutUint64(buf[8:], r.StartInstructions)
			binary.LittleEndian.PutUint64(buf[16:], r.EndInstructions)
			binary.LittleEndian.PutUint64(buf[24:], r.Shared.Cycles)
			binary.LittleEndian.PutUint64(buf[32:], r.Shared.StallSMS)
			h.Write(buf[:])
			for _, name := range names {
				est := r.Estimates[name]
				if out.bad == "" && (math.IsNaN(est.PrivateCPI) || math.IsInf(est.PrivateCPI, 0)) {
					out.bad = fmt.Sprintf("%s estimate on core %d is %v", name, r.Core, est.PrivateCPI)
				}
				binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(est.PrivateCPI))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(est.SMSStallCycles))
				h.Write(buf[:16])
			}
			return nil
		},
	}, nil
}

// run executes op on e through Engine.Run.
func (op simOp) run(ctx context.Context, e *gdp.Engine, rec *spanRecorder, opID, parent int) (simOutcome, error) {
	var out simOutcome
	opts, err := op.options(rec, opID, parent, &out)
	if err != nil {
		return out, err
	}
	var res *gdp.SimResult
	start := nowNS()
	rec.time(opID, parent, "sim.run", func(int) { res, err = e.Run(ctx, opts) })
	out.runNS = nowNS() - start
	if err != nil {
		return out, err
	}
	out.cycles = res.Cycles
	out.hash.Sum(out.digest[:0])
	for core, st := range res.SampleStats {
		if cpi := st.CPI(); out.bad == "" && !(cpi > 0) {
			out.bad = fmt.Sprintf("shared CPI of core %d is %v", core, cpi)
		}
	}
	return out, nil
}

// simFixture drives sim_dense and sim_sparse: one goroutine, the serial
// driver, one Engine.Run per operation.
type simFixture struct {
	engine *gdp.Engine
	ops    []simOp
}

func newSimFixture(_ env, ops []simOp) (fixture, error) {
	engine, err := gdp.NewEngine()
	if err != nil {
		return nil, err
	}
	return &simFixture{engine: engine, ops: ops}, nil
}

func (f *simFixture) round(ctx context.Context, rec *spanRecorder) (*roundOut, error) {
	out := &roundOut{ops: len(f.ops)}
	before := engineCounts(f.engine)
	h := sha256.New()
	for i, op := range f.ops {
		var res simOutcome
		var err error
		opID, end := rec.begin(i+1, 0, "op.sim")
		start := nowNS()
		res, err = op.run(ctx, f.engine, rec, i+1, opID)
		out.latenciesMS = append(out.latenciesMS, float64(nowNS()-start)/1e6)
		end()
		if err != nil {
			return nil, fmt.Errorf("op %d (%s, %d cores): %w", i, op.scenario, op.cores, err)
		}
		if res.bad != "" {
			out.failed++
			out.violations = append(out.violations, fmt.Sprintf("op %d: %s", i, res.bad))
		}
		out.cycles += res.cycles
		out.simNS += res.runNS
		binary.Write(h, binary.LittleEndian, res.cycles)
		h.Write(res.digest[:])
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.counts = engineCounts(f.engine).minus(before)
	out.exact = exactCounts(out.counts, true)
	spanSimCounts(out, out.counts)
	return out, nil
}

// spanSimCounts records what was simulated inside the round's
// simulation-calling spans, from the counters of the engine that ran them.
func spanSimCounts(out *roundOut, from counts) {
	out.counts["span_sim_cycles"] = from["sim_cycles"]
	out.counts["span_sim_ff_cycles"] = from["sim_ff_cycles"]
	out.counts["span_sim_intervals"] = from["sim_intervals"]
}

func (f *simFixture) idle() {}

func (f *simFixture) verify(context.Context) []string { return nil }

func (f *simFixture) opCounts() map[string]int {
	m := map[string]int{"clients": 1, "ops_per_round": len(f.ops), "instructions_per_core": int(f.ops[0].instructions), "interval_cycles": int(f.ops[0].interval)}
	for _, op := range f.ops {
		m[fmt.Sprintf("ops.%s.%dc", op.scenario, op.cores)]++
	}
	return m
}

func (f *simFixture) close() {}
