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
	// Jobs is the worker-pool width for the per-(workload, policy)
	// simulations (0 = runtime.NumCPU(), 1 = serial); results are identical
	// for any value.
	Jobs int
	// Cache memoizes the policy-independent private-mode runs
	// (nil = no memoization).
	Cache *runner.Cache
	// Progress, when non-nil, receives one event per completed job.
	Progress runner.ProgressFunc
	// Instr, when non-nil, attaches telemetry (pool metrics, simulation run
	// counters) to the study. Purely observational.
	Instr *Instrumentation
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

// policyRun describes how to set up one policy's shared-mode run.
func policyRun(name string, cores int, prb int) (acct []accounting.Accountant, pol partition.Policy, source string, err error) {
	switch name {
	case "LRU":
		return nil, nil, "", nil
	case "UCP":
		return nil, partition.UCP{}, "", nil
	case "ASM":
		a, err := accounting.NewASM(cores, 1000, nil)
		if err != nil {
			return nil, nil, "", err
		}
		return []accounting.Accountant{a}, partition.MCP{PolicyName: "ASM"}, "ASM", nil
	case "MCP":
		a, err := accounting.NewGDP(cores, prb, false)
		if err != nil {
			return nil, nil, "", err
		}
		return []accounting.Accountant{a}, partition.MCP{}, "GDP", nil
	case "MCP-O":
		a, err := accounting.NewGDP(cores, prb, true)
		if err != nil {
			return nil, nil, "", err
		}
		return []accounting.Accountant{a}, partition.MCP{PolicyName: "MCP-O"}, "GDP-O", nil
	default:
		return nil, nil, "", fmt.Errorf("experiments: unknown policy %q", name)
	}
}

// privateCPIs obtains the private-mode CPI of every benchmark slot of a
// workload, on the unmanaged LLC, for the full instruction sample. It is
// policy independent, so the workload's references are one cache entry: the
// five policy jobs of a workload (and any later study over the same
// population) simulate them once.
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
func PartitioningStudy(opts PartitioningOptions) (*PartitioningResult, error) {
	return PartitioningStudyContext(context.Background(), opts)
}

// PartitioningStudyContext is PartitioningStudy with cancellation: the pool
// stops scheduling new simulations and in-flight cycle loops poll the context
// at interval boundaries. Every (workload, policy) pair is one runner job;
// STP values are aggregated by job index so the result is independent of the
// worker count.
func PartitioningStudyContext(ctx context.Context, opts PartitioningOptions) (*PartitioningResult, error) {
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

	var jobs []runner.Job[float64]
	for i, wl := range workloads {
		wl := wl
		simSeed := opts.Seed + int64(i) // per-job derived seed, shared by the
		// policies of one workload so they stay directly comparable
		for _, polName := range opts.Policies {
			polName := polName
			jobs = append(jobs, runner.Job[float64]{
				Label: fmt.Sprintf("%s/%s", wl.ID, polName),
				Fn: func(ctx context.Context) (float64, error) {
					return runPolicyCell(ctx, opts, wl, polName, simSeed)
				},
			})
		}
	}
	stps, err := runner.Run(ctx, jobs, runner.Options{
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
		for j, polName := range opts.Policies {
			stp := stps[i*len(opts.Policies)+j]
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
// reduces it to system throughput.
func runPolicyCell(ctx context.Context, opts PartitioningOptions, wl workload.Workload, polName string, simSeed int64) (float64, error) {
	privateCPI, err := privateCPIs(ctx, opts, wl, simSeed)
	if err != nil {
		return 0, err
	}
	accts, pol, source, err := policyRun(polName, opts.Cores, 32)
	if err != nil {
		return 0, err
	}
	res, err := sim.RunContext(ctx, sim.Options{
		Config:              opts.Config,
		Workload:            wl,
		InstructionsPerCore: opts.InstructionsPerCore,
		IntervalCycles:      opts.IntervalCycles,
		Seed:                simSeed,
		Accountants:         accts,
		Partitioner:         pol,
		PartitionSource:     source,
		Metrics:             opts.Instr.simMetrics(),
	})
	if err != nil {
		return 0, err
	}
	sharedCPI := make([]float64, wl.Cores())
	for core := range sharedCPI {
		sharedCPI[core] = res.SampleStats[core].CPI()
	}
	return metrics.STP(privateCPI, sharedCPI)
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
