package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of -compare, per (end-to-end metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's bound to two sets of runs: a is the parent (or
// first) set, b the change (or second) set.
//
//   - unresolved: the run-to-run spread of either set (interquartile distance
//     as a share of its median) is wider than the bound, so the sets cannot
//     tell a regression of that size from noise — unless every run of b reads
//     better than every run of a, which no amount of spread explains away.
//   - regressed: b's median is worse than a's by more than the bound.
//   - ok: otherwise.
func judge(d metricDef, a, b []float64) (verdict string, worse float64) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if d.Better == "higher" {
		worse = (ma - mb) / ma
	}
	if max(spreadShare(a), spreadShare(b)) > d.Bound && !allBetter(d, a, b) {
		return verdictUnresolved, worse
	}
	if worse > d.Bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// allBetter reports whether every value of b reads better than every value of a.
func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// loadSet reads every result file of a directory, grouped by workload.
func loadSet(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no result-*.json files", dir)
	}
	set := map[string][]*result{}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set[r.Provenance.Workload] = append(set[r.Provenance.Workload], &r)
	}
	return set, nil
}

// compareSets prints one verdict per (end-to-end metric, workload) pair and
// checks that every exact count agrees between runs of the same workload,
// seed and mode. It reports whether anything regressed or disagreed.
func compareSets(w io.Writer, dirA, dirB string) (bool, error) {
	a, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a[wl.name], d.Name), values(b[wl.name], d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse := judge(d, va, vb)
			if verdict == verdictRegressed {
				bad = true
			}
			fmt.Fprintf(w, "%-13s %-18s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d/%d)\n",
				wl.name, d.Name, median(va), median(vb), worse*100, spreadShare(va)*100, spreadShare(vb)*100, d.Bound*100, verdict, len(va), len(vb))
		}
	}

	// Exact counts: same workload, seed and mode must agree to the last digit.
	type runKey struct {
		workload string
		seed     int64
		trace    bool
	}
	index := map[runKey]*result{}
	for _, runs := range a {
		for _, r := range runs {
			index[runKey{r.Provenance.Workload, r.Provenance.Seed, r.Provenance.Trace}] = r
		}
	}
	pairs, mismatches := 0, 0
	for _, runs := range b {
		for _, rb := range runs {
			ra, ok := index[runKey{rb.Provenance.Workload, rb.Provenance.Seed, rb.Provenance.Trace}]
			if !ok {
				continue
			}
			pairs++
			var diffs []string
			if ra.OutDigest != rb.OutDigest {
				diffs = append(diffs, fmt.Sprintf("out_digest %.12s != %.12s", ra.OutDigest, rb.OutDigest))
			}
			for k, v := range ra.Counts {
				if vb, ok := rb.Counts[k]; ok && vb != v {
					diffs = append(diffs, fmt.Sprintf("%s %v != %v", k, v, vb))
				}
			}
			sort.Strings(diffs)
			for _, diff := range diffs {
				mismatches++
				fmt.Fprintf(w, "COUNT MISMATCH %s seed %d trace %v: %s\n", rb.Provenance.Workload, rb.Provenance.Seed, rb.Provenance.Trace, diff)
			}
		}
	}
	fmt.Fprintf(w, "exact counts: %d run pairs with equal workload, seed and mode; %d mismatches\n", pairs, mismatches)
	return bad || mismatches > 0, nil
}

// values collects one end-to-end metric over the untraced runs of a workload.
func values(runs []*result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok && !r.Provenance.Trace {
			out = append(out, mv.Value)
		}
	}
	return out
}
