package experiments

import (
	"context"
	"errors"
	"sort"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CheckpointOptions configure warmup sharing for a study's shared-mode
// simulations: the first WarmupIntervals accounting intervals of every run
// are simulated once per unique warmup prefix (memoized through the study's
// result cache, so sibling cells — and repeated disk-cached invocations —
// fork instead of re-simulating) and each cell forks from the restored
// snapshot. Forked runs are byte-identical to cold runs, so checkpointing
// never changes a study's numbers, only its wall-clock.
type CheckpointOptions struct {
	// WarmupIntervals is the shared warmup prefix length in accounting
	// intervals. Zero and negative values disable checkpointing.
	WarmupIntervals int
	// CoPRBSizes lists additional GDP/GDP-O Pending Request Buffer sizes to
	// co-simulate in the warmup prefix. Transparent accountants do not
	// perturb the hardware, so a prefix carrying the units of every PRB size
	// a sweep evaluates lets all of the sweep's PRB cells fork from one
	// checkpoint instead of one prefix each.
	CoPRBSizes []int
}

// enabled reports whether warmup sharing is on.
func (c CheckpointOptions) enabled() bool { return c.WarmupIntervals > 0 }

// prefixInstructionBudget is the per-core instruction sample of warmup prefix
// runs: effectively unbounded, so the prefix never completes a sample early
// and the checkpoint stays valid for any cell whose sample outlasts the
// warmup (RunFromCheckpoint validates exactly that per fork).
const prefixInstructionBudget = uint64(1) << 40

// checkpointSpec is the cache key of one warmup prefix: everything the
// boundary snapshot depends on. Cells with equal specs share one prefix
// simulation through the two-layer result cache.
type checkpointSpec struct {
	Op             string
	Config         *config.CMPConfig
	Workload       workload.Workload
	IntervalCycles uint64
	Seed           int64
	WarmupCycles   uint64
	// Keys are the sorted CheckpointKeys of the accountants attached to the
	// prefix run. Transparent techniques leave the hardware trajectory
	// untouched, but invasive ones (ASM) do not, and every attached
	// accountant contributes state to the snapshot — so the set identifies
	// the prefix.
	Keys []string
}

// uniquePRBSizes returns the sorted, deduplicated union of the cell's PRB
// size and its co-simulated sizes.
func uniquePRBSizes(opts AccuracyOptions) []int {
	seen := map[int]bool{opts.PRBEntries: true}
	sizes := []int{opts.PRBEntries}
	for _, prb := range opts.Checkpoint.CoPRBSizes {
		if prb > 0 && !seen[prb] {
			seen[prb] = true
			sizes = append(sizes, prb)
		}
	}
	sort.Ints(sizes)
	return sizes
}

// buildPrefixTransparent instantiates the warmup prefix's accountant set for
// transparent cells: the requested techniques with GDP/GDP-O units for every
// PRB size in the union, so each sibling cell finds its own units in the
// snapshot.
func buildPrefixTransparent(opts AccuracyOptions) ([]accounting.Accountant, error) {
	var out []accounting.Accountant
	for _, prb := range uniquePRBSizes(opts) {
		if hasTechnique(opts.Techniques, "GDP") {
			a, err := accounting.NewGDP(opts.Cores, prb, false)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		if hasTechnique(opts.Techniques, "GDP-O") {
			a, err := accounting.NewGDP(opts.Cores, prb, true)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
	}
	if hasTechnique(opts.Techniques, "ITCA") {
		a, err := accounting.NewITCA(opts.Cores)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	if hasTechnique(opts.Techniques, "PTCA") {
		a, err := accounting.NewPTCA(opts.Cores)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// runSharedCheckpointed executes one cell's shared-mode simulation, sharing
// the warmup prefix through the cell's result cache when checkpointing is
// enabled. prefixBuild constructs the accountant set of the prefix run (a
// superset of cellAccts is fine). The result is byte-identical to a cold run;
// any checkpoint that cannot seed this cell (for example a sample shorter
// than the warmup) falls back to one transparently.
func runSharedCheckpointed(ctx context.Context, opts AccuracyOptions, wl workload.Workload, simSeed int64,
	cellAccts []accounting.Accountant, prefixBuild func() ([]accounting.Accountant, error)) (*sim.Result, error) {

	cpMetrics := opts.Instr.checkpoint()
	simOpts := sim.Options{
		Config:              opts.Config,
		Workload:            wl,
		InstructionsPerCore: opts.InstructionsPerCore,
		IntervalCycles:      opts.IntervalCycles,
		Seed:                simSeed,
		Accountants:         cellAccts,
		Metrics:             opts.Instr.simMetrics(),
	}
	if !opts.Checkpoint.enabled() {
		return sim.RunContext(ctx, simOpts)
	}
	warmup := uint64(opts.Checkpoint.WarmupIntervals) * opts.IntervalCycles

	prefixAccts, err := prefixBuild()
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(prefixAccts))
	for _, acct := range prefixAccts {
		s, ok := acct.(accounting.Snapshotter)
		if !ok {
			// Non-checkpointable accountant in play: run cold.
			cpMetrics.coldFallback()
			return sim.RunContext(ctx, simOpts)
		}
		keys = append(keys, s.CheckpointKey())
	}
	sort.Strings(keys)

	spec := checkpointSpec{
		Op:             "Checkpoint/v1",
		Config:         opts.Config,
		Workload:       wl,
		IntervalCycles: opts.IntervalCycles,
		Seed:           simSeed,
		WarmupCycles:   warmup,
		Keys:           keys,
	}
	cp, _, err := runner.MemoContext(ctx, opts.Cache, spec, func() (*sim.Checkpoint, error) {
		cpMetrics.prefixRun()
		prefixOpts := simOpts
		prefixOpts.Accountants = prefixAccts
		prefixOpts.InstructionsPerCore = prefixInstructionBudget
		prefixOpts.MaxCycles = 0
		return sim.RunToCheckpoint(ctx, prefixOpts, warmup)
	})
	if err != nil {
		if errors.Is(err, sim.ErrWarmupTooLong) {
			cpMetrics.coldFallback()
			return sim.RunContext(ctx, simOpts)
		}
		return nil, err
	}
	res, err := sim.RunFromCheckpoint(ctx, simOpts, cp)
	if errors.Is(err, sim.ErrCheckpointMismatch) {
		// This cell cannot use the shared prefix (typically: its instruction
		// sample ends inside the warmup). Its siblings still can.
		cpMetrics.coldFallback()
		return sim.RunContext(ctx, simOpts)
	}
	if err == nil {
		cpMetrics.fork()
	}
	return res, err
}
