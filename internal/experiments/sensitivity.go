package experiments

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/config"
	"repro/internal/workload"
)

// SensitivityPoint is one configuration of a Figure 7 sweep together with
// GDP-O's mean absolute IPC RMS error per workload category.
type SensitivityPoint struct {
	Setting string
	// ErrorByMix maps the workload category (H/M/L or a mixed pattern) to
	// GDP-O's mean absolute IPC RMS error.
	ErrorByMix map[string]float64
}

// SensitivityResult is one panel of Figure 7.
type SensitivityResult struct {
	Panel  string
	Points []SensitivityPoint
}

// SensitivityOptions configure the Figure 7 sweeps (which always use the
// 4-core system, as in the paper).
type SensitivityOptions struct {
	Scale StudyScale
}

// gdpoErrorByMix runs the GDP-O-only accuracy study for the three categories
// under one configuration.
func gdpoErrorByMix(ctx context.Context, scale StudyScale, cfg *config.CMPConfig, prbEntries int, mixesToRun []workload.MixKind) (map[string]float64, error) {
	out := map[string]float64{}
	for _, mix := range mixesToRun {
		res, err := AccuracyStudy(ctx, AccuracyOptions{
			Cores:               4,
			Mix:                 mix,
			Workloads:           scale.WorkloadsPerCell,
			InstructionsPerCore: scale.InstructionsPerCore,
			IntervalCycles:      scale.IntervalCycles,
			Seed:                scale.Seed,
			Config:              cfg,
			PRBEntries:          prbEntries,
			Techniques:          []string{"GDP-O"},
			Jobs:                scale.Jobs,
			Cache:               scale.Cache,
			Progress:            scale.Progress,
			Instr:               scale.Instr,
		})
		if err != nil {
			return nil, err
		}
		if t := res.Technique("GDP-O"); t != nil {
			out[mix.String()] = t.MeanIPCAbsRMS
		}
	}
	return out, nil
}

// Figure7a sweeps the LLC capacity (the paper uses 4, 8 and 16 MB; the scaled
// hierarchy sweeps half, nominal and double capacity).
func Figure7a(ctx context.Context, opts SensitivityOptions) (*SensitivityResult, error) {
	base := config.ScaledConfig(4)
	out := &SensitivityResult{Panel: "Figure 7a: LLC size"}
	for _, factor := range []int{1, 2, 4} {
		cfg := base.WithLLCSize(base.LLC.SizeBytes / 2 * factor)
		errs, err := gdpoErrorByMix(ctx, opts.Scale, cfg, 32, mixes)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, SensitivityPoint{
			Setting:    fmt.Sprintf("%dKB", cfg.LLC.SizeBytes>>10),
			ErrorByMix: errs,
		})
	}
	return out, nil
}

// Figure7b sweeps the LLC associativity (16, 32 and 64 ways).
func Figure7b(ctx context.Context, opts SensitivityOptions) (*SensitivityResult, error) {
	base := config.ScaledConfig(4)
	out := &SensitivityResult{Panel: "Figure 7b: LLC associativity"}
	for _, ways := range []int{16, 32, 64} {
		cfg := base.WithLLCWays(ways)
		errs, err := gdpoErrorByMix(ctx, opts.Scale, cfg, 32, mixes)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, SensitivityPoint{
			Setting:    fmt.Sprintf("%d ways", ways),
			ErrorByMix: errs,
		})
	}
	return out, nil
}

// Figure7c sweeps the number of DDR2 channels (1, 2, 4).
func Figure7c(ctx context.Context, opts SensitivityOptions) (*SensitivityResult, error) {
	base := config.ScaledConfig(4)
	out := &SensitivityResult{Panel: "Figure 7c: DDR2 channels"}
	for _, channels := range []int{1, 2, 4} {
		cfg := base.WithDRAM(config.DDR2, channels)
		errs, err := gdpoErrorByMix(ctx, opts.Scale, cfg, 32, mixes)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, SensitivityPoint{
			Setting:    fmt.Sprintf("%d channel(s)", channels),
			ErrorByMix: errs,
		})
	}
	return out, nil
}

// Figure7d compares the DDR2-800 and DDR4-2666 interfaces.
func Figure7d(ctx context.Context, opts SensitivityOptions) (*SensitivityResult, error) {
	base := config.ScaledConfig(4)
	out := &SensitivityResult{Panel: "Figure 7d: DRAM interface"}
	for _, kind := range []config.DRAMKind{config.DDR2, config.DDR4} {
		cfg := base.WithDRAM(kind, 1)
		errs, err := gdpoErrorByMix(ctx, opts.Scale, cfg, 32, mixes)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, SensitivityPoint{Setting: kind.String(), ErrorByMix: errs})
	}
	return out, nil
}

// Figure7e sweeps the Pending Request Buffer size (8 to 1024 entries).
func Figure7e(ctx context.Context, opts SensitivityOptions) (*SensitivityResult, error) {
	base := config.ScaledConfig(4)
	out := &SensitivityResult{Panel: "Figure 7e: PRB size"}
	for _, entries := range []int{8, 16, 32, 64, 1024} {
		errs, err := gdpoErrorByMix(ctx, opts.Scale, base, entries, mixes)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, SensitivityPoint{
			Setting:    fmt.Sprintf("%d entries", entries),
			ErrorByMix: errs,
		})
	}
	return out, nil
}

// Figure7f evaluates the mixed workload categories (HHML, HMML, HMLL).
func Figure7f(ctx context.Context, opts SensitivityOptions) (*SensitivityResult, error) {
	base := config.ScaledConfig(4)
	out := &SensitivityResult{Panel: "Figure 7f: mixed workloads"}
	errs, err := gdpoErrorByMix(ctx, opts.Scale, base, 32,
		[]workload.MixKind{workload.MixHHML, workload.MixHMML, workload.MixHMLL})
	if err != nil {
		return nil, err
	}
	out.Points = append(out.Points, SensitivityPoint{Setting: "mixed", ErrorByMix: errs})
	return out, nil
}

// Figure7 runs every panel of the sensitivity study, with ctx plumbed into
// every panel.
func Figure7(ctx context.Context, opts SensitivityOptions) ([]*SensitivityResult, error) {
	panels := []func(context.Context, SensitivityOptions) (*SensitivityResult, error){
		Figure7a, Figure7b, Figure7c, Figure7d, Figure7e, Figure7f,
	}
	var out []*SensitivityResult
	for _, panel := range panels {
		res, err := panel(ctx, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Render prints a sensitivity panel as a table.
func (r *SensitivityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (GDP-O average absolute IPC RMS error)\n", r.Panel)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-16s", p.Setting)
		mixes := slices.SortedFunc(maps.Keys(p.ErrorByMix), func(a, b string) int {
			return cmp.Or(mixRank(a)-mixRank(b), strings.Compare(a, b))
		})
		for _, mix := range mixes {
			fmt.Fprintf(&b, "  %s=%.4f", mix, p.ErrorByMix[mix])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// mixRank orders a panel's categories as Figure 7 prints them: H, M and L
// first, then the mixed patterns.
func mixRank(mix string) int {
	if i := slices.Index([]string{"H", "M", "L"}, mix); i >= 0 {
		return i
	}
	return 3
}
