package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PolicyNames lists the LLC management policies compared in Figure 6, in the
// paper's order.
var PolicyNames = []string{"LRU", "UCP", "ASM", "MCP", "MCP-O"}

// PartitioningOptions configure one partitioning-study cell (one bar group of
// Figure 6a).
type PartitioningOptions struct {
	Cores               int
	Mix                 workload.MixKind
	Workloads           int
	InstructionsPerCore uint64
	IntervalCycles      uint64
	Seed                int64
	Config              *config.CMPConfig
	// Policies restricts the evaluated policies (nil = all five).
	Policies []string
	// CellConfig is the study's execution environment.
	CellConfig
}

func (o PartitioningOptions) withDefaults() PartitioningOptions {
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.Workloads == 0 {
		o.Workloads = 2
	}
	if o.InstructionsPerCore == 0 {
		o.InstructionsPerCore = 5000
	}
	if o.IntervalCycles == 0 {
		o.IntervalCycles = 4000
	}
	if o.Config == nil {
		o.Config = config.ScaledConfig(o.Cores)
	}
	if len(o.Policies) == 0 {
		o.Policies = PolicyNames
	}
	return o
}

// WorkloadSTP is one workload's system throughput under every policy.
type WorkloadSTP struct {
	Workload string
	STP      map[string]float64
}

// PartitioningResult is the outcome of one Figure 6 cell.
type PartitioningResult struct {
	Label       string
	PerWorkload []WorkloadSTP
	AverageSTP  map[string]float64
}

// policyRun maps a Figure 6 policy to the LLC policy that manages the shared
// run (nil = unmanaged LRU) and the technique whose estimates drive it ("" =
// none).
func policyRun(name string) (pol partition.Policy, source string, err error) {
	switch name {
	case "LRU":
		return nil, "", nil
	case "UCP":
		return partition.UCP{}, "", nil
	case "ASM":
		return partition.MCP{PolicyName: "ASM"}, "ASM", nil
	case "MCP":
		return partition.MCP{}, "GDP", nil
	case "MCP-O":
		return partition.MCP{PolicyName: "MCP-O"}, "GDP-O", nil
	default:
		return nil, "", fmt.Errorf("experiments: unknown policy %q", name)
	}
}

// privateCPIs obtains the private-mode CPI of every benchmark slot of a
// workload, on the unmanaged LLC, for the full instruction sample. It is
// policy independent, so the workload's references are one job and one cache
// entry, whatever the number of policies (and any later study over the same
// population recalls them).
func privateCPIs(ctx context.Context, opts PartitioningOptions, wl workload.Workload, simSeed int64) ([]float64, error) {
	points := make([][]uint64, wl.Cores())
	for core := range points {
		points[core] = []uint64{opts.InstructionsPerCore}
	}
	refs, err := workloadReferences(ctx, opts.Cache, opts.Config, wl, simSeed, points)
	if err != nil {
		return nil, err
	}
	privateCPI := make([]float64, wl.Cores())
	for core, ref := range refs {
		privateCPI[core] = ref.At[0].CPI()
	}
	return privateCPI, nil
}

// PartitioningStudy runs Figure 6's comparison for one core count and
// workload category: every policy runs the same workloads, and system
// throughput is computed against private-mode runs of each benchmark.
// Cancelling ctx stops the pool from scheduling new simulations, and
// in-flight cycle loops poll ctx at interval boundaries. Per workload, its
// references and each policy's shared run are one runner job each, all in one
// pool; every job yields per-core CPIs, and STP is computed from them by job
// index, so the result is independent of the worker count.
func PartitioningStudy(ctx context.Context, opts PartitioningOptions) (*PartitioningResult, error) {
	opts = opts.withDefaults()
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	workloads, err := workload.Generate(workload.GenerateOptions{
		Cores: opts.Cores, Mix: opts.Mix, Count: opts.Workloads, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}

	var jobs []runner.Job[[]float64]
	for i, wl := range workloads {
		simSeed := opts.Seed + int64(i) // per-job derived seed, shared by the
		// references and the policies of one workload so they stay comparable
		jobs = append(jobs, runner.Job[[]float64]{
			Label: wl.ID + "/reference",
			Fn: func(ctx context.Context) ([]float64, error) {
				return privateCPIs(ctx, opts, wl, simSeed)
			},
		})
		for _, polName := range opts.Policies {
			jobs = append(jobs, runner.Job[[]float64]{
				Label: fmt.Sprintf("%s/%s", wl.ID, polName),
				Fn: func(ctx context.Context) ([]float64, error) {
					return runPolicyCell(ctx, opts, wl, polName, simSeed)
				},
			})
		}
	}
	cpis, err := runner.Run(ctx, jobs, runner.Options{
		Workers:  opts.Jobs,
		Progress: opts.Progress,
		Metrics:  opts.Instr.pool(),
	})
	if err != nil {
		return nil, err
	}

	result := &PartitioningResult{
		Label:      fmt.Sprintf("%dc-%s", opts.Cores, opts.Mix),
		AverageSTP: map[string]float64{},
	}
	perPolicy := map[string][]float64{}
	for i, wl := range workloads {
		entry := WorkloadSTP{Workload: wl.ID, STP: map[string]float64{}}
		row := cpis[i*(len(opts.Policies)+1):] // the references, then each policy's run
		for j, polName := range opts.Policies {
			stp, err := metrics.STP(row[0], row[1+j])
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", wl.ID, polName, err)
			}
			entry.STP[polName] = stp
			perPolicy[polName] = append(perPolicy[polName], stp)
		}
		result.PerWorkload = append(result.PerWorkload, entry)
	}
	for _, polName := range opts.Policies {
		if avg, err := metrics.Mean(perPolicy[polName]); err == nil {
			result.AverageSTP[polName] = avg
		}
	}
	return result, nil
}

// runPolicyCell runs one policy's shared-mode simulation of one workload and
// returns each core's shared-mode CPI over its instruction sample.
func runPolicyCell(ctx context.Context, opts PartitioningOptions, wl workload.Workload, polName string, simSeed int64) ([]float64, error) {
	pol, source, err := policyRun(polName)
	if err != nil {
		return nil, err
	}
	var accts []accounting.Accountant
	if source != "" {
		a, err := accounting.New(source, opts.Cores, 32, 1000)
		if err != nil {
			return nil, err
		}
		accts = []accounting.Accountant{a}
	}
	res, err := sim.Run(ctx, sim.Options{
		Config:              opts.Config,
		Workload:            wl,
		InstructionsPerCore: opts.InstructionsPerCore,
		IntervalCycles:      opts.IntervalCycles,
		Seed:                simSeed,
		Accountants:         accts,
		Partitioner:         pol,
		DiscardIntervals:    true, // only SampleStats is read
		Metrics:             opts.Instr.simMetrics(),
	})
	if err != nil {
		return nil, err
	}
	sharedCPI := make([]float64, wl.Cores())
	for core := range sharedCPI {
		sharedCPI[core] = res.SampleStats[core].CPI()
	}
	return sharedCPI, nil
}

// RelativeToLRU returns each workload's STP normalized to the LRU baseline
// (Figure 6b's presentation). Policies other than LRU are reported; a
// workload is skipped when its LRU STP is missing or zero.
func (r *PartitioningResult) RelativeToLRU() []WorkloadSTP {
	var out []WorkloadSTP
	for _, w := range r.PerWorkload {
		base := w.STP["LRU"]
		if base <= 0 {
			continue
		}
		rel := WorkloadSTP{Workload: w.Workload, STP: map[string]float64{}}
		for pol, stp := range w.STP {
			rel.STP[pol] = stp / base
		}
		out = append(out, rel)
	}
	return out
}

// Render prints the Figure 6a table.
func (r *PartitioningResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6a cell %s: average system throughput (STP)\n", r.Label)
	fmt.Fprintf(&b, "%-10s", "policy")
	for _, p := range PolicyNames {
		fmt.Fprintf(&b, "%10s", p)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-10s", "avg STP")
	for _, p := range PolicyNames {
		fmt.Fprintf(&b, "%10.3f", r.AverageSTP[p])
	}
	b.WriteString("\n")
	return b.String()
}
