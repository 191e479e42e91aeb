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

// sensitivitySetting is one point of a Figure 7 panel: the configuration,
// PRB size and workload categories GDP-O is evaluated under.
type sensitivitySetting struct {
	label string
	cfg   *config.CMPConfig
	prb   int
	mixes []workload.MixKind
}

// sensitivityPanel is one panel of Figure 7: its title and its settings.
type sensitivityPanel struct {
	name     string
	settings []sensitivitySetting
}

// figure7Panels lists Figure 7's panels and their settings, all on the
// 4-core system as in the paper. The paper's LLC sizes are 4, 8 and 16 MB;
// the scaled hierarchy sweeps half, nominal and double capacity.
func figure7Panels() []sensitivityPanel {
	base := config.ScaledConfig(4)
	var size, ways, channels, prbs []sensitivitySetting
	for _, factor := range []int{1, 2, 4} {
		cfg := base.WithLLCSize(base.LLC.SizeBytes / 2 * factor)
		size = append(size, sensitivitySetting{fmt.Sprintf("%dKB", cfg.LLC.SizeBytes>>10), cfg, 32, mixes})
	}
	for _, n := range []int{16, 32, 64} {
		ways = append(ways, sensitivitySetting{fmt.Sprintf("%d ways", n), base.WithLLCWays(n), 32, mixes})
	}
	for _, n := range []int{1, 2, 4} {
		channels = append(channels, sensitivitySetting{fmt.Sprintf("%d channel(s)", n), base.WithDRAM(config.DDR2, n), 32, mixes})
	}
	for _, n := range []int{8, 16, 32, 64, 1024} {
		prbs = append(prbs, sensitivitySetting{fmt.Sprintf("%d entries", n), base, n, mixes})
	}
	return []sensitivityPanel{
		{"Figure 7a: LLC size", size},
		{"Figure 7b: LLC associativity", ways},
		{"Figure 7c: DDR2 channels", channels},
		{"Figure 7d: DRAM interface", []sensitivitySetting{
			{config.DDR2.String(), base.WithDRAM(config.DDR2, 1), 32, mixes},
			{config.DDR4.String(), base.WithDRAM(config.DDR4, 1), 32, mixes},
		}},
		{"Figure 7e: PRB size", prbs},
		{"Figure 7f: mixed workloads", []sensitivitySetting{
			{"mixed", base, 32, []workload.MixKind{workload.MixHHML, workload.MixHMML, workload.MixHMLL}},
		}},
	}
}

// Figure7 runs every panel of the sensitivity study: at every setting, the
// GDP-O-only accuracy study of each of the setting's categories.
func Figure7(ctx context.Context, scale StudyScale) ([]*SensitivityResult, error) {
	var out []*SensitivityResult
	for _, panel := range figure7Panels() {
		res := &SensitivityResult{Panel: panel.name}
		for _, s := range panel.settings {
			point := SensitivityPoint{Setting: s.label, ErrorByMix: map[string]float64{}}
			for _, mix := range s.mixes {
				study, err := AccuracyStudy(ctx, AccuracyOptions{
					Cores:               4,
					Mix:                 mix,
					Workloads:           scale.WorkloadsPerCell,
					InstructionsPerCore: scale.InstructionsPerCore,
					IntervalCycles:      scale.IntervalCycles,
					Seed:                scale.Seed,
					Config:              s.cfg,
					PRBEntries:          s.prb,
					Techniques:          []string{"GDP-O"},
					CellConfig:          scale.CellConfig,
				})
				if err != nil {
					return nil, err
				}
				point.ErrorByMix[mix.String()] = study.Technique("GDP-O").MeanIPCAbsRMS
			}
			res.Points = append(res.Points, point)
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
