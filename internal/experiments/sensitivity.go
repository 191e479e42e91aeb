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

// Figure7 runs every panel of the sensitivity study, all on the 4-core system
// as in the paper: at every setting, the GDP-O-only accuracy study of each of
// the setting's categories. It lists every study first and hands the list to
// the study runner, which simulates each distinct shared run once: the base
// configuration's run of each category serves a point in each of panels a to
// e, all five PRB sizes of 7e included, since GDP-O only observes the run it
// accounts for. The paper's LLC sizes are 4, 8 and 16 MB; the scaled
// hierarchy sweeps half, nominal and double capacity.
func Figure7(ctx context.Context, scale StudyScale) ([]*SensitivityResult, error) {
	var out []*SensitivityResult
	var studies []accuracyStudy
	var byMix []map[string]float64 // the point each study reports to
	panel := func(name string) {
		out = append(out, &SensitivityResult{Panel: name})
	}
	point := func(setting string, cfg *config.CMPConfig, prb int, categories ...workload.MixKind) {
		p := SensitivityPoint{Setting: setting, ErrorByMix: map[string]float64{}}
		for _, mix := range categories {
			opts := scale.accuracyOptions(4, mix)
			opts.Config, opts.PRBEntries, opts.Techniques = cfg, prb, []string{"GDP-O"}
			studies = append(studies, accuracyStudy{label: setting + "/", opts: opts})
			byMix = append(byMix, p.ErrorByMix)
		}
		res := out[len(out)-1]
		res.Points = append(res.Points, p)
	}
	base := config.ScaledConfig(4)
	panel("Figure 7a: LLC size")
	for _, factor := range []int{1, 2, 4} {
		cfg := base.WithLLCSize(base.LLC.SizeBytes / 2 * factor)
		point(fmt.Sprintf("%dKB", cfg.LLC.SizeBytes>>10), cfg, 32, mixes...)
	}
	panel("Figure 7b: LLC associativity")
	for _, n := range []int{16, 32, 64} {
		point(fmt.Sprintf("%d ways", n), base.WithLLCWays(n), 32, mixes...)
	}
	panel("Figure 7c: DDR2 channels")
	for _, n := range []int{1, 2, 4} {
		point(fmt.Sprintf("%d channel(s)", n), base.WithDRAM(config.DDR2, n), 32, mixes...)
	}
	panel("Figure 7d: DRAM interface")
	point(config.DDR2.String(), base.WithDRAM(config.DDR2, 1), 32, mixes...)
	point(config.DDR4.String(), base.WithDRAM(config.DDR4, 1), 32, mixes...)
	panel("Figure 7e: PRB size")
	for _, n := range []int{8, 16, 32, 64, 1024} {
		point(fmt.Sprintf("%d entries", n), base, n, mixes...)
	}
	panel("Figure 7f: mixed workloads")
	point("mixed", base, 32, workload.MixHHML, workload.MixHMML, workload.MixHMLL)

	results, err := runStudies(ctx, scale.CellConfig, studies)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		byMix[i][r.Options.Mix.String()] = r.Technique("GDP-O").MeanIPCAbsRMS
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
