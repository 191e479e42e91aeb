package workload

import (
	"fmt"
	"math/rand"
)

// Workload is one multi-programmed combination of benchmarks, one per core.
type Workload struct {
	ID         string
	Benchmarks []Benchmark
}

// Cores returns the number of cores the workload occupies.
func (w Workload) Cores() int { return len(w.Benchmarks) }

// Names returns the benchmark names in core order.
func (w Workload) Names() []string {
	out := make([]string, len(w.Benchmarks))
	for i, b := range w.Benchmarks {
		out[i] = b.Name
	}
	return out
}

// MixKind identifies how a workload's benchmarks were selected.
type MixKind int

const (
	// MixH draws all benchmarks from the high-sensitivity class.
	MixH MixKind = iota
	// MixM draws all benchmarks from the medium-sensitivity class.
	MixM
	// MixL draws all benchmarks from the low-sensitivity class.
	MixL
	// MixHHML uses two H benchmarks, one M and one L (4-core only).
	MixHHML
	// MixHMML uses one H, two M and one L.
	MixHMML
	// MixHMLL uses one H, one M and two L.
	MixHMLL
)

// String returns the mix name as used in the paper's figures.
func (m MixKind) String() string {
	switch m {
	case MixH:
		return "H"
	case MixM:
		return "M"
	case MixL:
		return "L"
	case MixHHML:
		return "HHML"
	case MixHMML:
		return "HMML"
	case MixHMLL:
		return "HMLL"
	default:
		return fmt.Sprintf("Mix(%d)", int(m))
	}
}

// classPattern returns the per-core class requirements for a mix on the given
// core count. Single-class mixes repeat the class; the mixed patterns are only
// defined for 4 cores (as in the paper's Figure 7f) but generalize by cycling.
func classPattern(mix MixKind, cores int) []Class {
	pattern := func(cs ...Class) []Class {
		out := make([]Class, cores)
		for i := range out {
			out[i] = cs[i%len(cs)]
		}
		return out
	}
	switch mix {
	case MixH:
		return pattern(HighSensitivity)
	case MixM:
		return pattern(MediumSensitivity)
	case MixL:
		return pattern(LowSensitivity)
	case MixHHML:
		return pattern(HighSensitivity, HighSensitivity, MediumSensitivity, LowSensitivity)
	case MixHMML:
		return pattern(HighSensitivity, MediumSensitivity, MediumSensitivity, LowSensitivity)
	case MixHMLL:
		return pattern(HighSensitivity, MediumSensitivity, LowSensitivity, LowSensitivity)
	default:
		return pattern(LowSensitivity)
	}
}

// GenerateOptions controls workload generation.
type GenerateOptions struct {
	Cores int
	Mix   MixKind
	Count int
	Seed  int64
	// MaxUsesPerBenchmark bounds how many times one benchmark may appear in a
	// single workload. The paper uses 1 for 2- and 4-core systems and 2 for
	// the 8-core H and M workloads (footnote 7). Zero selects that rule
	// automatically.
	MaxUsesPerBenchmark int
}

// Generate produces Count multi-programmed workloads drawn at random (with
// the given seed) from the benchmarks matching the mix's class pattern.
func Generate(opts GenerateOptions) ([]Workload, error) {
	if opts.Cores < 1 {
		return nil, fmt.Errorf("workload: core count %d invalid", opts.Cores)
	}
	if opts.Count < 1 {
		return nil, fmt.Errorf("workload: workload count %d invalid", opts.Count)
	}
	maxUses := opts.MaxUsesPerBenchmark
	if maxUses == 0 {
		maxUses = 1
		if opts.Cores >= 8 && (opts.Mix == MixH || opts.Mix == MixM) {
			// Footnote 7: H and M each contain only 8 benchmarks, so allow reuse.
			maxUses = 2
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	pattern := classPattern(opts.Mix, opts.Cores)
	byClass := suiteByClass()
	for c, bs := range byClass {
		need := 0
		for _, pc := range pattern {
			if pc == c {
				need++
			}
		}
		if need > len(bs)*maxUses {
			return nil, fmt.Errorf("workload: class %s has %d benchmarks, cannot fill %d slots with max %d uses",
				c, len(bs), need, maxUses)
		}
	}

	out := make([]Workload, 0, opts.Count)
	for i := 0; i < opts.Count; i++ {
		uses := map[string]int{}
		w := Workload{ID: fmt.Sprintf("%dc-%s-%02d", opts.Cores, opts.Mix, i)}
		for _, class := range pattern {
			pool := byClass[class]
			// Rejection-sample a benchmark that has not exhausted its uses.
			var pick Benchmark
			for {
				pick = pool[rng.Intn(len(pool))]
				if uses[pick.Name] < maxUses {
					break
				}
			}
			uses[pick.Name]++
			w.Benchmarks = append(w.Benchmarks, pick)
		}
		out = append(out, w)
	}
	return out, nil
}
