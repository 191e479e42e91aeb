// Checkpointing: a shared-mode simulation can be snapshotted at an interval
// boundary into a serializable, content-addressable Checkpoint and later
// forked any number of times. A forked run is byte-identical to a cold run of
// the same options (the differential tests in checkpoint_test.go pin this),
// which is what makes warmup sharing sound: experiment grids whose cells
// differ only in measurement window or in which (transparent) accountants
// they attach simulate their common warmup prefix once and fork per cell.
//
// The prefix run may attach a superset of the accountants any single cell
// uses (for example GDP units for several PRB sizes at once): transparent
// accountants observe without perturbing the hardware, so each accountant's
// state at the boundary equals its state in a solo cold run, and every cell
// restores exactly the accountants it asked for. Invasive techniques (ASM)
// and partitioning policies do perturb the hardware, so runs attaching them
// only share prefixes with identically configured runs — the warmup-prefix
// cache key the experiments layer derives from CheckpointKeys captures that.
package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CheckpointVersion identifies the checkpoint layout. Forking rejects
// checkpoints of any other version. Version 2 moved the per-request GDP-O
// overlap baseline from a request-ID-keyed map onto the outstanding-miss
// trackers (cpu.WaiterState.IssueCount).
const CheckpointVersion = 2

// ErrWarmupTooLong reports that the run completed (every core committed its
// instruction sample, or the cycle budget ran out) before the requested
// checkpoint cycle was reached, so no checkpoint could be taken.
var ErrWarmupTooLong = errors.New("sim: run ended before the checkpoint cycle")

// ErrCheckpointMismatch wraps every reason a checkpoint cannot seed a
// particular fork (diverging configuration, workload, seed, interval, an
// instruction sample the warmup already exceeded, a missing accountant
// state). Callers use errors.Is to fall back to a cold run.
var ErrCheckpointMismatch = errors.New("sim: checkpoint does not match the run options")

func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCheckpointMismatch, fmt.Sprintf(format, args...))
}

// IntervalRecordBase is the accountant-independent part of one warmup
// interval record: the shared-mode measurements every cell forking from the
// checkpoint reproduces verbatim. Estimates are stored per accountant in
// AccountantCheckpoint so that cells attaching different accountant subsets
// rebuild exactly the records a cold run would have produced.
type IntervalRecordBase struct {
	Core              int       `json:"core"`
	StartInstructions uint64    `json:"start_instructions"`
	EndInstructions   uint64    `json:"end_instructions"`
	Shared            cpu.Stats `json:"shared"`
}

// AccountantCheckpoint is one accountant's contribution to a checkpoint: its
// configuration identity, its serialized internal state at the boundary, and
// the per-interval estimates it produced during the warmup.
type AccountantCheckpoint struct {
	Key   string          `json:"key"`
	State json.RawMessage `json:"state"`
	// Estimates[k][core] is the estimate for warmup interval k.
	Estimates [][]accounting.Estimate `json:"estimates"`
}

// Checkpoint is a complete, serializable snapshot of a shared-mode simulation
// at an interval boundary. It survives a JSON round-trip (the runner's
// two-layer result cache stores checkpoints like any other result, keyed by a
// spec hash of everything that determines the warmup prefix), and one
// checkpoint value may seed any number of concurrent forks: restoring copies,
// never aliases.
type Checkpoint struct {
	Version int    `json:"version"`
	Cycle   uint64 `json:"cycle"` // next cycle to simulate; a multiple of IntervalCycles

	Config          *config.CMPConfig `json:"config"`
	Workload        workload.Workload `json:"workload"`
	IntervalCycles  uint64            `json:"interval_cycles"`
	Seed            int64             `json:"seed"`
	ExternalSources bool              `json:"external_sources,omitempty"`

	// MaxInstructions is the largest per-core committed instruction count at
	// the boundary. A fork's InstructionsPerCore must exceed it: otherwise
	// the cold run would have recorded its sample statistics (or finished)
	// mid-warmup, which a boundary snapshot cannot reproduce.
	MaxInstructions uint64 `json:"max_instructions"`

	Requests []mem.Request       `json:"requests"`
	Cores    []cpu.CoreState     `json:"cores"`
	Memsys   memsys.State        `json:"memsys"`
	Sources  []trace.SourceState `json:"sources"`

	Accountants []AccountantCheckpoint `json:"accountants"`
	Intervals   [][]IntervalRecordBase `json:"intervals"`
}

// checkpointCapture accumulates the per-interval data a checkpoint needs
// while the warmup prefix simulates.
type checkpointCapture struct {
	at    uint64
	bases [][]IntervalRecordBase
	// ests[a][k][core] is accountant a's estimate for interval k.
	ests [][][]accounting.Estimate
}

// snapshotterOf returns the accountant's Snapshotter face or an error naming
// the technique.
func snapshotterOf(acct accounting.Accountant) (accounting.Snapshotter, error) {
	s, ok := acct.(accounting.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: accountant %s does not support checkpointing", acct.Name())
	}
	return s, nil
}

// RunToCheckpoint simulates the first warmupCycles cycles of a shared-mode
// run and returns the boundary snapshot. warmupCycles must be a positive
// multiple of opts.IntervalCycles. Every attached accountant must implement
// accounting.Snapshotter (with a unique CheckpointKey), and every instruction
// source must be snapshottable (generators and replayers are). If the run
// finishes before the boundary — the instruction samples were smaller than
// the warmup — ErrWarmupTooLong is returned; callers pick a warmup shorter
// than the shortest cell, or pass an effectively unbounded instruction sample
// for the prefix run as the experiments layer does.
func RunToCheckpoint(ctx context.Context, opts Options, warmupCycles uint64) (*Checkpoint, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if warmupCycles == 0 || warmupCycles%opts.IntervalCycles != 0 {
		return nil, fmt.Errorf("sim: warmup of %d cycles is not a positive multiple of the %d-cycle interval",
			warmupCycles, opts.IntervalCycles)
	}
	keys := make(map[string]bool, len(opts.Accountants))
	for _, acct := range opts.Accountants {
		s, err := snapshotterOf(acct)
		if err != nil {
			return nil, err
		}
		if key := s.CheckpointKey(); keys[key] {
			return nil, fmt.Errorf("sim: duplicate accountant checkpoint key %q", key)
		} else {
			keys[key] = true
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The prefix run only exists for its boundary state: interval records are
	// not accumulated (the capture below stores them in checkpoint form) and
	// the cycle budget is the warmup itself.
	opts.OnInterval = nil
	opts.DiscardIntervals = true
	if opts.MaxCycles == 0 || opts.MaxCycles > warmupCycles {
		opts.MaxCycles = warmupCycles
	}
	st, err := newRunState(opts)
	if err != nil {
		return nil, err
	}
	st.cpCapture = &checkpointCapture{
		at:   warmupCycles,
		ests: make([][][]accounting.Estimate, len(opts.Accountants)),
	}
	if err := st.runFast(ctx); err != nil {
		return nil, err
	}
	if st.cpOut == nil {
		return nil, ErrWarmupTooLong
	}
	return st.cpOut, nil
}

// takeCheckpoint snapshots the complete simulation state at the interval
// boundary `cycle` (called by the drivers immediately after the boundary's
// recordInterval).
func (st *runState) takeCheckpoint(cycle uint64) error {
	t := mem.NewSnapshotTable()
	cp := &Checkpoint{
		Version:         CheckpointVersion,
		Cycle:           cycle,
		Config:          st.opts.Config,
		Workload:        st.opts.Workload,
		IntervalCycles:  st.opts.IntervalCycles,
		Seed:            st.opts.Seed,
		ExternalSources: len(st.opts.Sources) > 0,
		Cores:           make([]cpu.CoreState, len(st.cores)),
		Sources:         make([]trace.SourceState, len(st.cores)),
		Accountants:     make([]AccountantCheckpoint, len(st.opts.Accountants)),
		Intervals:       st.cpCapture.bases,
	}
	for i, core := range st.cores {
		cp.Cores[i] = core.Snapshot(t)
		if n := core.Stats().Instructions; n > cp.MaxInstructions {
			cp.MaxInstructions = n
		}
		src, err := trace.SnapshotSource(st.sources[i])
		if err != nil {
			return err
		}
		cp.Sources[i] = src
	}
	cp.Memsys = st.shared.Snapshot(t)
	for ai, acct := range st.opts.Accountants {
		s, err := snapshotterOf(acct)
		if err != nil {
			return err
		}
		state, err := s.SnapshotState(t)
		if err != nil {
			return err
		}
		cp.Accountants[ai] = AccountantCheckpoint{
			Key:       s.CheckpointKey(),
			State:     state,
			Estimates: st.cpCapture.ests[ai],
		}
	}
	cp.Requests = t.Requests
	st.cpOut = cp
	return nil
}

// validateFork checks that a checkpoint can seed a run with the given
// options. maxCycles is the resolved cycle budget of the fork.
func (cp *Checkpoint) validateFork(opts *Options, maxCycles uint64) error {
	if cp.Version != CheckpointVersion {
		return mismatchf("checkpoint version %d, this build speaks %d", cp.Version, CheckpointVersion)
	}
	if cp.Cycle == 0 || cp.IntervalCycles == 0 || cp.Cycle%cp.IntervalCycles != 0 {
		return mismatchf("checkpoint cycle %d is not an interval boundary", cp.Cycle)
	}
	if opts.IntervalCycles != cp.IntervalCycles {
		return mismatchf("interval %d cycles, checkpoint used %d", opts.IntervalCycles, cp.IntervalCycles)
	}
	if !reflect.DeepEqual(opts.Config, cp.Config) {
		return mismatchf("CMP configuration diverges from the checkpoint's")
	}
	if !reflect.DeepEqual(opts.Workload, cp.Workload) {
		return mismatchf("workload diverges from the checkpoint's")
	}
	if len(opts.Sources) > 0 != cp.ExternalSources {
		return mismatchf("source kind diverges (external sources vs generated traces)")
	}
	if !cp.ExternalSources && opts.Seed != cp.Seed {
		return mismatchf("seed %d, checkpoint used %d", opts.Seed, cp.Seed)
	}
	if len(cp.Cores) != opts.Config.Cores || len(cp.Sources) != opts.Config.Cores {
		return mismatchf("checkpoint is for %d cores, run has %d", len(cp.Cores), opts.Config.Cores)
	}
	if opts.InstructionsPerCore <= cp.MaxInstructions {
		return mismatchf("instruction sample %d not beyond the warmup's %d committed instructions",
			opts.InstructionsPerCore, cp.MaxInstructions)
	}
	if maxCycles <= cp.Cycle {
		return mismatchf("cycle budget %d not beyond the checkpoint cycle %d", maxCycles, cp.Cycle)
	}
	return nil
}

// RunFromCheckpoint forks a shared-mode run from a checkpoint: the warmup
// prefix's state is restored instead of re-simulated and the run continues to
// completion under opts. The Result — cycles, statistics, every interval
// record including the warmup's, sample points — is byte-identical to a cold
// RunContext of the same options. Accountants in opts must implement
// accounting.Snapshotter and each CheckpointKey must have been attached to
// the prefix run (a superset prefix is fine; the fork restores its subset).
// A checkpoint that cannot seed these options fails with an error wrapping
// ErrCheckpointMismatch, which callers treat as "fall back to a cold run".
func RunFromCheckpoint(ctx context.Context, opts Options, cp *Checkpoint) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := newRunState(opts)
	if err != nil {
		return nil, err
	}
	if err := cp.validateFork(&opts, st.maxCycles); err != nil {
		return nil, err
	}

	// Match each of the fork's accountants to its prefix state by key.
	byKey := make(map[string]*AccountantCheckpoint, len(cp.Accountants))
	for i := range cp.Accountants {
		byKey[cp.Accountants[i].Key] = &cp.Accountants[i]
	}
	states := make([]*AccountantCheckpoint, len(opts.Accountants))
	snappers := make([]accounting.Snapshotter, len(opts.Accountants))
	for ai, acct := range opts.Accountants {
		s, err := snapshotterOf(acct)
		if err != nil {
			return nil, err
		}
		acp, ok := byKey[s.CheckpointKey()]
		if !ok {
			return nil, mismatchf("accountant %q was not part of the warmup prefix", s.CheckpointKey())
		}
		if len(acp.Estimates) != len(cp.Intervals) {
			return nil, mismatchf("accountant %q carries %d estimate intervals, checkpoint has %d",
				acp.Key, len(acp.Estimates), len(cp.Intervals))
		}
		states[ai], snappers[ai] = acp, s
	}

	rt := mem.NewRestoreTable(cp.Requests)
	if err := st.shared.Restore(cp.Memsys, rt); err != nil {
		return nil, err
	}
	for i, core := range st.cores {
		if err := core.Restore(cp.Cores[i], rt); err != nil {
			return nil, err
		}
		if err := trace.RestoreSource(st.sources[i], cp.Sources[i]); err != nil {
			return nil, err
		}
		st.lastSnapshot[i] = core.Stats()
	}
	for ai := range opts.Accountants {
		if err := snappers[ai].RestoreState(states[ai].State, rt); err != nil {
			return nil, err
		}
	}

	// Reconstitute the warmup's interval records exactly as a cold run would
	// have produced them: the shared measurements from the checkpoint, the
	// estimates from this fork's own accountants.
	for k := range cp.Intervals {
		for _, base := range cp.Intervals[k] {
			if base.Core < 0 || base.Core >= len(st.cores) {
				return nil, mismatchf("interval record for core %d outside the %d-core run", base.Core, len(st.cores))
			}
			rec := IntervalRecord{
				Core:              base.Core,
				StartInstructions: base.StartInstructions,
				EndInstructions:   base.EndInstructions,
				Shared:            base.Shared,
				Estimates:         make(map[string]accounting.Estimate, len(opts.Accountants)),
			}
			for ai, acct := range opts.Accountants {
				ests := states[ai].Estimates[k]
				if base.Core >= len(ests) {
					return nil, mismatchf("accountant %q interval %d carries %d cores, need core %d",
						states[ai].Key, k, len(ests), base.Core)
				}
				rec.Estimates[acct.Name()] = ests[base.Core]
			}
			if !opts.DiscardIntervals {
				st.res.Intervals[base.Core] = append(st.res.Intervals[base.Core], rec)
			}
			st.res.SamplePoints[base.Core] = append(st.res.SamplePoints[base.Core], base.EndInstructions)
			if opts.OnInterval != nil {
				if err := opts.OnInterval(rec); err != nil {
					return nil, err
				}
			}
		}
	}

	st.startCycle = cp.Cycle
	st.flushedCycle = cp.Cycle
	if err := st.runFast(ctx); err != nil {
		return nil, err
	}
	return st.res, nil
}
