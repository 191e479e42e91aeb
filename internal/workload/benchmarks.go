// Package workload defines the synthetic benchmark suite and the
// multi-programmed workload generator used by the experiment harness.
//
// The GDP paper evaluates on 52 SPEC CPU2000/2006 benchmarks classified by
// last-level-cache (LLC) sensitivity: high (H), medium (M) and low (L).
// SPEC binaries and reference inputs cannot be redistributed, so this package
// substitutes each benchmark with a named synthetic profile whose working-set
// sizes, memory intensity, dependency structure and phase behaviour are chosen
// to land the benchmark in the same sensitivity class the paper reports for
// it. The paper's explicit class membership (its footnotes 5 and 6) is
// preserved exactly; the remaining benchmarks are low-sensitivity profiles.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Class is the LLC-sensitivity class of a benchmark.
type Class int

const (
	// LowSensitivity (L): speed-up below 1.2 when going from 1 LLC way to all ways.
	LowSensitivity Class = iota
	// MediumSensitivity (M): speed-up between 1.2 and 1.75.
	MediumSensitivity
	// HighSensitivity (H): speed-up above 1.75.
	HighSensitivity
)

// String returns the single-letter class name used throughout the paper.
func (c Class) String() string {
	switch c {
	case HighSensitivity:
		return "H"
	case MediumSensitivity:
		return "M"
	default:
		return "L"
	}
}

// Benchmark couples a benchmark name with its synthetic trace parameters and
// its LLC-sensitivity class.
type Benchmark struct {
	Name   string
	Suite  string // "SPEC2000" or "SPEC2006" (provenance of the name)
	Class  Class
	Params trace.Params
}

// NewGenerator returns a deterministic instruction generator for the
// benchmark. Different seeds model different simulation samples.
func (b Benchmark) NewGenerator(seed int64) (*trace.Generator, error) {
	return trace.NewGenerator(b.Params, seed)
}

// Working-set size constants relative to the scaled memory hierarchy
// (4 KB L1D, 8 KB L2, 32-64 KB LLC). Profiles that should be highly
// LLC-sensitive have working sets comparable to a core's fair share of the
// LLC (so they fit when allocated enough ways and thrash otherwise);
// low-sensitivity profiles either fit in the private levels or exceed the
// LLC entirely (streaming). The sizes are deliberately small so that working
// sets warm up and get reused within the short instruction samples this
// reproduction simulates.
const (
	wsL1     = 2 << 10
	wsL2     = 6 << 10
	wsLLC    = 12 << 10
	wsLLCBig = 20 << 10
	wsMem    = 2 << 20
)

// highProfile returns trace parameters for a highly LLC-sensitive benchmark.
// variant perturbs the parameters so that the eight H benchmarks are not
// identical.
func highProfile(variant int) trace.Params {
	p := trace.Params{
		LoadFrac:        0.28,
		StoreFrac:       0.08,
		FPFrac:          0.3,
		FPMulFrac:       0.2,
		IntMulFrac:      0.02,
		BranchFrac:      0.1,
		MispredictRate:  0.02,
		LoadDepFrac:     0.25,
		DepDistanceMean: 4,
		WorkingSets: []trace.WorkingSet{
			{Bytes: wsL1, AccessProb: 0.60},
			{Bytes: wsL2, AccessProb: 0.18},
			{Bytes: wsLLC, AccessProb: 0.19},
			{Bytes: wsMem, AccessProb: 0.03, Sequential: true, Stride: 64},
		},
	}
	switch variant % 4 {
	case 1: // more pointer chasing (long critical path)
		p.LoadDepFrac = 0.55
		p.LoadFrac = 0.25
	case 2: // bandwidth bound with a big LLC working set
		p.LoadDepFrac = 0.05
		p.LoadFrac = 0.33
		p.WorkingSets[2].Bytes = wsLLCBig
	case 3: // phased compute/memory behaviour (facerec-like)
		p.PhaseLength = 4000
		p.ComputePhaseScale = 0.15
		p.StoreBurstLen = 24
		p.StoreBurstGap = 900
	}
	return p
}

// mediumProfile returns parameters for a medium-sensitivity benchmark.
func mediumProfile(variant int) trace.Params {
	p := trace.Params{
		LoadFrac:        0.22,
		StoreFrac:       0.08,
		FPFrac:          0.25,
		FPMulFrac:       0.25,
		IntMulFrac:      0.03,
		BranchFrac:      0.12,
		MispredictRate:  0.03,
		LoadDepFrac:     0.3,
		DepDistanceMean: 5,
		WorkingSets: []trace.WorkingSet{
			{Bytes: wsL1, AccessProb: 0.68},
			{Bytes: wsL2, AccessProb: 0.18},
			{Bytes: wsLLC / 2, AccessProb: 0.12},
			{Bytes: wsMem, AccessProb: 0.02, Sequential: true, Stride: 64},
		},
	}
	switch variant % 3 {
	case 1:
		p.LoadDepFrac = 0.45
		p.WorkingSets[2].Bytes = wsLLC / 3
	case 2:
		p.LoadFrac = 0.26
		p.WorkingSets[2].AccessProb = 0.16
		p.WorkingSets[0].AccessProb = 0.64
	}
	return p
}

// lowProfile returns parameters for a low-sensitivity benchmark. Variants
// alternate between compute-bound profiles (working set fits in the private
// caches) and streaming profiles (working set far exceeds the LLC so extra
// LLC capacity does not help).
func lowProfile(variant int) trace.Params {
	if variant%2 == 0 {
		// Compute bound.
		return trace.Params{
			LoadFrac:        0.12,
			StoreFrac:       0.05,
			FPFrac:          0.45,
			FPMulFrac:       0.4,
			IntMulFrac:      0.05,
			BranchFrac:      0.1,
			MispredictRate:  0.01,
			LoadDepFrac:     0.2,
			DepDistanceMean: 3,
			WorkingSets: []trace.WorkingSet{
				{Bytes: wsL1, AccessProb: 0.8},
				{Bytes: wsL2, AccessProb: 0.2},
			},
		}
	}
	// Streaming / memory bound but LLC-insensitive.
	return trace.Params{
		LoadFrac:        0.28,
		StoreFrac:       0.08,
		FPFrac:          0.2,
		FPMulFrac:       0.2,
		IntMulFrac:      0.02,
		BranchFrac:      0.08,
		MispredictRate:  0.02,
		LoadDepFrac:     0.05,
		DepDistanceMean: 6,
		WorkingSets: []trace.WorkingSet{
			{Bytes: wsL1, AccessProb: 0.72},
			{Bytes: wsMem, AccessProb: 0.28, Sequential: true, Stride: 64},
		},
	}
}

// suiteNames lists the 52 benchmark names with their suite and class. The H
// and M memberships follow the paper's footnotes; every other benchmark is L.
var suiteNames = []struct {
	name  string
	suite string
	class Class
}{
	// High LLC sensitivity (paper footnote 5).
	{"apsi", "SPEC2000", HighSensitivity},
	{"facerec", "SPEC2000", HighSensitivity},
	{"galgel", "SPEC2000", HighSensitivity},
	{"ammp", "SPEC2000", HighSensitivity},
	{"art", "SPEC2000", HighSensitivity},
	{"omnetpp", "SPEC2006", HighSensitivity},
	{"lbm", "SPEC2006", HighSensitivity},
	{"sphinx3", "SPEC2006", HighSensitivity},
	// Medium LLC sensitivity (paper footnote 6).
	{"equake", "SPEC2000", MediumSensitivity},
	{"twolf", "SPEC2000", MediumSensitivity},
	{"parser", "SPEC2000", MediumSensitivity},
	{"vpr", "SPEC2000", MediumSensitivity},
	{"gromacs", "SPEC2006", MediumSensitivity},
	{"astar", "SPEC2006", MediumSensitivity},
	{"bzip2", "SPEC2006", MediumSensitivity},
	{"hmmer", "SPEC2006", MediumSensitivity},
	// Low LLC sensitivity (remaining benchmarks used by the paper).
	{"gzip", "SPEC2000", LowSensitivity},
	{"wupwise", "SPEC2000", LowSensitivity},
	{"swim", "SPEC2000", LowSensitivity},
	{"mgrid", "SPEC2000", LowSensitivity},
	{"applu", "SPEC2000", LowSensitivity},
	{"vortex", "SPEC2000", LowSensitivity},
	{"gcc2000", "SPEC2000", LowSensitivity},
	{"mesa", "SPEC2000", LowSensitivity},
	{"crafty", "SPEC2000", LowSensitivity},
	{"fma3d", "SPEC2000", LowSensitivity},
	{"eon", "SPEC2000", LowSensitivity},
	{"perlbmk", "SPEC2000", LowSensitivity},
	{"gap", "SPEC2000", LowSensitivity},
	{"lucas", "SPEC2000", LowSensitivity},
	{"sixtrack", "SPEC2000", LowSensitivity},
	{"bwaves", "SPEC2006", LowSensitivity},
	{"gcc", "SPEC2006", LowSensitivity},
	{"mcf", "SPEC2006", LowSensitivity},
	{"milc", "SPEC2006", LowSensitivity},
	{"zeusmp", "SPEC2006", LowSensitivity},
	{"cactusADM", "SPEC2006", LowSensitivity},
	{"leslie3d", "SPEC2006", LowSensitivity},
	{"namd", "SPEC2006", LowSensitivity},
	{"gobmk", "SPEC2006", LowSensitivity},
	{"dealII", "SPEC2006", LowSensitivity},
	{"soplex", "SPEC2006", LowSensitivity},
	{"povray", "SPEC2006", LowSensitivity},
	{"calculix", "SPEC2006", LowSensitivity},
	{"gemsFDTD", "SPEC2006", LowSensitivity},
	{"libquantum", "SPEC2006", LowSensitivity},
	{"h264ref", "SPEC2006", LowSensitivity},
	{"tonto", "SPEC2006", LowSensitivity},
	{"wrf", "SPEC2006", LowSensitivity},
	{"sjeng", "SPEC2006", LowSensitivity},
	{"xalancbmk", "SPEC2006", LowSensitivity},
	{"bench52", "SPEC2006", LowSensitivity},
}

// Suite returns all 52 benchmarks, ordered by name within class (H, then M,
// then L) for reproducibility.
func Suite() []Benchmark {
	out := make([]Benchmark, 0, len(suiteNames))
	hIdx, mIdx, lIdx := 0, 0, 0
	for _, s := range suiteNames {
		var p trace.Params
		switch s.class {
		case HighSensitivity:
			p = highProfile(hIdx)
			hIdx++
		case MediumSensitivity:
			p = mediumProfile(mIdx)
			mIdx++
		default:
			p = lowProfile(lIdx)
			lIdx++
		}
		out = append(out, Benchmark{Name: s.name, Suite: s.suite, Class: s.class, Params: p})
	}
	// Special-case a few benchmarks the paper singles out so that the
	// corresponding anecdotes (Section VII) have a counterpart here.
	for i := range out {
		switch out[i].Name {
		case "libquantum":
			// Tight bandwidth-bound loop sustaining several concurrent SMS loads.
			out[i].Params.LoadDepFrac = 0.0
			out[i].Params.LoadFrac = 0.35
			out[i].Params.WorkingSets = []trace.WorkingSet{
				{Bytes: wsL1, AccessProb: 0.6},
				{Bytes: wsMem, AccessProb: 0.4, Sequential: true, Stride: 64},
			}
		case "lbm":
			// FP-pressure inner loop: many FP multiplies, issue-queue bound.
			out[i].Params.FPFrac = 0.7
			out[i].Params.FPMulFrac = 0.5
		case "facerec":
			// Alternating compute-bound and memory-bound phases, store bursts.
			out[i].Params.PhaseLength = 4000
			out[i].Params.ComputePhaseScale = 0.1
			out[i].Params.StoreBurstLen = 32
			out[i].Params.StoreBurstGap = 800
		case "wrf", "h264ref":
			// Compute bound: short critical paths, little memory traffic.
			out[i].Params.LoadFrac = 0.1
			out[i].Params.WorkingSets = []trace.WorkingSet{
				{Bytes: wsL1, AccessProb: 0.9},
				{Bytes: wsL2, AccessProb: 0.1},
			}
		case "applu":
			// Periods where almost all latency is interference-induced LLC misses.
			out[i].Params.WorkingSets = []trace.WorkingSet{
				{Bytes: wsL1, AccessProb: 0.6},
				{Bytes: wsLLC / 2, AccessProb: 0.4},
			}
		}
	}
	return out
}

// ByName returns the named benchmark, or an error listing the valid names.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// suiteByClass builds the suite once and splits it by class, each class
// sorted by name.
func suiteByClass() map[Class][]Benchmark {
	out := map[Class][]Benchmark{}
	for _, b := range Suite() {
		out[b.Class] = append(out[b.Class], b)
	}
	for _, bs := range out {
		sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	}
	return out
}
