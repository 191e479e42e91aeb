package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestErrors(t *testing.T) {
	if AbsoluteError(2.5, 2.0) != 0.5 {
		t.Error("absolute error")
	}
	if RelativeError(2.5, 2.0) != 0.25 {
		t.Error("relative error")
	}
	if !math.IsInf(RelativeError(1, 0), 1) {
		t.Error("relative error with zero actual should be +Inf")
	}
	if RelativeError(0, 0) != 0 {
		t.Error("relative error 0/0 should be 0")
	}
}

func TestRMS(t *testing.T) {
	v, err := RMS([]float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMS = %v", v)
	}
	if _, err := RMS(nil); err == nil {
		t.Error("RMS of empty slice should error")
	}
}

func TestRMSMeasuresBiasAndVariability(t *testing.T) {
	biased, _ := RMS([]float64{1, 1, 1, 1})
	unbiased, _ := RMS([]float64{-1, 1, -1, 1})
	if !almostEqual(biased, unbiased, 1e-12) {
		t.Error("RMS should treat bias and variance symmetrically")
	}
	zero, _ := RMS([]float64{0, 0})
	if zero != 0 {
		t.Error("RMS of zeros should be zero")
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %v err %v", m, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean of empty slice should error")
	}
}

func TestSTP(t *testing.T) {
	// Two cores each slowed down 2x -> STP = 1.0.
	stp, err := STP([]float64{1, 1}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(stp, 1.0, 1e-12) {
		t.Errorf("STP = %v, want 1.0", stp)
	}
	// No slowdown -> STP = n.
	stp, _ = STP([]float64{1, 1, 1, 1}, []float64{1, 1, 1, 1})
	if !almostEqual(stp, 4.0, 1e-12) {
		t.Errorf("STP = %v, want 4.0", stp)
	}
	if _, err := STP([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := STP(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := STP([]float64{1}, []float64{0}); err == nil {
		t.Error("zero shared CPI should error")
	}
}

func TestANTT(t *testing.T) {
	antt, err := ANTT([]float64{1, 1}, []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(antt, 3.0, 1e-12) {
		t.Errorf("ANTT = %v, want 3.0", antt)
	}
	if _, err := ANTT([]float64{0}, []float64{1}); err == nil {
		t.Error("zero private CPI should error")
	}
	if _, err := ANTT(nil, nil); err == nil {
		t.Error("empty input should error")
	}
}

func TestSTPBoundedByCoreCount(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		private := make([]float64, len(raw))
		shared := make([]float64, len(raw))
		for i, r := range raw {
			slow := 1 + math.Abs(r) // slowdown >= 1
			if math.IsNaN(slow) || math.IsInf(slow, 0) {
				slow = 2
			}
			private[i] = 1
			shared[i] = slow
		}
		stp, err := STP(private, shared)
		if err != nil {
			return false
		}
		return stp <= float64(len(raw))+1e-9 && stp > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestErrorSeries(t *testing.T) {
	var s ErrorSeries
	s.Add(2.0, 1.0)
	s.Add(1.0, 1.0)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !almostEqual(s.AbsRMS(), math.Sqrt(0.5), 1e-12) {
		t.Errorf("AbsRMS = %v", s.AbsRMS())
	}
	if !almostEqual(s.RelRMS(), math.Sqrt(0.5), 1e-12) {
		t.Errorf("RelRMS = %v", s.RelRMS())
	}
}

func TestErrorSeriesSkipsInfiniteRelative(t *testing.T) {
	var s ErrorSeries
	s.Add(1.0, 0.0) // infinite relative error
	s.Add(2.0, 2.0)
	if s.RelRMS() != 0 {
		t.Errorf("RelRMS should exclude infinite samples, got %v", s.RelRMS())
	}
	if s.AbsRMS() == 0 {
		t.Error("AbsRMS should still reflect the absolute error")
	}
}

func TestEmptyErrorSeries(t *testing.T) {
	var s ErrorSeries
	if s.AbsRMS() != 0 || s.RelRMS() != 0 || s.Len() != 0 {
		t.Error("empty series should report zeros")
	}
}

func TestSummarize(t *testing.T) {
	sum := Summarize([]float64{4, 1, 3, 2})
	if sum.N != 4 || sum.Min != 1 || sum.Max != 4 {
		t.Errorf("summary = %+v", sum)
	}
	if !almostEqual(sum.Median, 2.5, 1e-12) {
		t.Errorf("median = %v", sum.Median)
	}
	if !almostEqual(sum.Mean, 2.5, 1e-12) {
		t.Errorf("mean = %v", sum.Mean)
	}
	if !almostEqual(sum.P25, 1.75, 1e-12) || !almostEqual(sum.P75, 3.25, 1e-12) {
		t.Errorf("quartiles = %v %v", sum.P25, sum.P75)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary should have N=0")
	}
	one := Summarize([]float64{7})
	if one.Median != 7 || one.P25 != 7 || one.P75 != 7 {
		t.Errorf("single-element summary = %+v", one)
	}
}

func TestSummarizeOrderingInvariant(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		s := Summarize(clean)
		if s.N == 0 {
			return true
		}
		return s.Min <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 && s.P75 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortedAscending(t *testing.T) {
	in := []float64{3, 1, 2}
	out := SortedAscending(in)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Errorf("sorted = %v", out)
	}
	if in[0] != 3 {
		t.Error("SortedAscending must not mutate its input")
	}
}
