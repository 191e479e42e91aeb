// Package metrics implements the performance and estimation-accuracy metrics
// used in the GDP paper's evaluation: system throughput (STP),
// average normalized turnaround time (ANTT), absolute and relative estimation
// errors, root-mean-squared (RMS) error aggregation and distribution
// summaries for violin-style reporting.
package metrics

import (
	"errors"
	"math"
	"sort"
)

// absoluteError returns the signed absolute error of an estimate: est - actual.
func absoluteError(est, actual float64) float64 { return est - actual }

// relativeError returns (est - actual) / actual. When the actual value is
// zero the result is +Inf (or 0 when both are zero) so pathological samples
// surface instead of disappearing.
func relativeError(est, actual float64) float64 {
	if actual == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (est - actual) / actual
}

// Mean returns the arithmetic mean of xs, or an error for an empty slice.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("metrics: mean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// STP computes system throughput per Eyerman & Eeckhout: the sum over cores
// of privateCPI_i / sharedCPI_i. Slices must have equal non-zero length.
func STP(privateCPI, sharedCPI []float64) (float64, error) {
	if len(privateCPI) == 0 || len(privateCPI) != len(sharedCPI) {
		return 0, errors.New("metrics: STP requires equal-length non-empty slices")
	}
	var stp float64
	for i := range privateCPI {
		if sharedCPI[i] <= 0 {
			return 0, errors.New("metrics: shared CPI must be positive")
		}
		stp += privateCPI[i] / sharedCPI[i]
	}
	return stp, nil
}

// ANTT computes the average normalized turnaround time: the arithmetic mean
// over cores of sharedCPI_i / privateCPI_i (per-application slowdown).
func ANTT(privateCPI, sharedCPI []float64) (float64, error) {
	if len(privateCPI) == 0 || len(privateCPI) != len(sharedCPI) {
		return 0, errors.New("metrics: ANTT requires equal-length non-empty slices")
	}
	var sum float64
	for i := range privateCPI {
		if privateCPI[i] <= 0 {
			return 0, errors.New("metrics: private CPI must be positive")
		}
		sum += sharedCPI[i] / privateCPI[i]
	}
	return sum / float64(len(privateCPI)), nil
}

// ErrorSeries accumulates per-interval estimation errors for one benchmark
// and reduces them to the RMS statistics used in Figures 3-5. It keeps only
// the running sums of squares, each square rounded before it is added (not
// fused: make fma-check), in the order the samples arrive.
type ErrorSeries struct {
	n      int     // samples
	absSq  float64 // sum of squared absolute errors
	relSq  float64 // sum of squared finite relative errors
	relLen int     // samples with a finite relative error
}

// Add records one estimate/actual pair.
func (s *ErrorSeries) Add(est, actual float64) {
	e := absoluteError(est, actual)
	s.absSq += float64(e * e)
	s.n++
	if r := relativeError(est, actual); !math.IsInf(r, 0) && !math.IsNaN(r) {
		s.relSq += float64(r * r)
		s.relLen++
	}
}

// Len returns the number of recorded samples.
func (s *ErrorSeries) Len() int { return s.n }

// AbsRMS returns the RMS of the absolute errors (0 when empty). A NaN error
// propagates.
func (s *ErrorSeries) AbsRMS() float64 { return rms(s.absSq, s.n) }

// RelRMS returns the RMS of the relative errors (0 when empty). Samples with
// infinite relative error (actual == 0) are excluded, matching the paper's
// treatment of degenerate intervals.
func (s *ErrorSeries) RelRMS() float64 { return rms(s.relSq, s.relLen) }

// rms is the root mean of n squares summing to sumSq (0 when n is 0).
func rms(sumSq float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(sumSq / float64(n))
}

// DistributionSummary captures the order statistics the paper reports in its
// violin plots and sorted-error figures.
type DistributionSummary struct {
	N      int
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
	Mean   float64
}

// Summarize computes a DistributionSummary of xs. Empty input returns a zero
// summary.
func Summarize(xs []float64) DistributionSummary {
	if len(xs) == 0 {
		return DistributionSummary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mean, _ := Mean(sorted)
	return DistributionSummary{
		N:      len(sorted),
		Min:    sorted[0],
		P25:    percentile(sorted, 0.25),
		Median: percentile(sorted, 0.5),
		P75:    percentile(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
	}
}

// percentile returns the linearly interpolated p-quantile of a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	// The float64 conversions round each product, so arm64 computes the
	// same bits as amd64 (make fma-check).
	pos := float64(p * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// SortedAscending returns a sorted copy of xs, the presentation used by the
// paper's Figure 4 (sorted per-benchmark RMS errors).
func SortedAscending(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
