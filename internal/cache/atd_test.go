package cache

import (
	"testing"
	"testing/quick"
)

func mustATD(t *testing.T, llcSets, ways, sampled int) *ATD {
	t.Helper()
	a, err := NewATD(llcSets, ways, sampled, 64)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewATDValidation(t *testing.T) {
	if _, err := NewATD(128, 16, 0, 64); err == nil {
		t.Error("zero sampled sets accepted")
	}
	if _, err := NewATD(128, 16, 256, 64); err == nil {
		t.Error("more sampled sets than LLC sets accepted")
	}
	if _, err := NewATD(100, 16, 10, 64); err == nil {
		t.Error("non-power-of-two LLC sets accepted")
	}
}

func TestATDSampling(t *testing.T) {
	a := mustATD(t, 128, 16, 32) // sample step = 4
	// Set index bits are addr[12:6] for 128 sets of 64B lines.
	sampledAddr := uint64(0 << 6)   // set 0: sampled
	unsampledAddr := uint64(1 << 6) // set 1: not sampled
	if a.sampleIndex(sampledAddr) < 0 {
		t.Error("set 0 should be sampled")
	}
	if a.sampleIndex(unsampledAddr) >= 0 {
		t.Error("set 1 should not be sampled with step 4")
	}
	if s, _ := a.Access(unsampledAddr); s {
		t.Error("access to unsampled set should report sampled=false")
	}
	if a.accesses != 0 {
		t.Error("unsampled access must not be counted")
	}
}

func TestATDFullSamplingHitDetection(t *testing.T) {
	a := mustATD(t, 64, 4, 64) // every set sampled
	addr := uint64(0x4000)
	if _, hit := a.Access(addr); hit {
		t.Error("cold access should miss")
	}
	if _, hit := a.Access(addr); !hit {
		t.Error("repeat access should hit")
	}
	if curve := a.MissCurve(); curve[4] != 1 || a.accesses != 2 {
		t.Errorf("misses=%d accesses=%d", curve[4], a.accesses)
	}
}

func TestATDStackDistanceEviction(t *testing.T) {
	// 2-way ATD: accessing 3 distinct lines mapping to the same set then
	// re-accessing the first must miss (stack distance 2 >= ways).
	a := mustATD(t, 64, 2, 64)
	setStride := uint64(64 * 64) // same set, different tag
	a.Access(0x0)
	a.Access(setStride)
	a.Access(2 * setStride)
	if _, hit := a.Access(0x0); hit {
		t.Error("line beyond associativity should have been evicted from ATD")
	}
	// Most recent two should still hit.
	if _, hit := a.Access(2 * setStride); !hit {
		t.Error("MRU line should hit")
	}
}

func TestMissCurveMonotonicityAndScaling(t *testing.T) {
	a := mustATD(t, 128, 8, 32) // scale factor 4
	// Touch a few lines repeatedly in sampled set 0.
	stride := uint64(128 * 64)
	for rep := 0; rep < 4; rep++ {
		for i := uint64(0); i < 6; i++ {
			a.Access(i * stride)
		}
	}
	curve := a.MissCurve()
	if len(curve) != 9 {
		t.Fatalf("curve length = %d, want ways+1", len(curve))
	}
	for w := 1; w < len(curve); w++ {
		if curve[w] > curve[w-1] {
			t.Errorf("miss curve not non-increasing at %d: %v", w, curve)
		}
	}
	if curve[0] != a.accesses*4 {
		t.Errorf("curve[0] = %d, want scaled accesses %d", curve[0], a.accesses*4)
	}
	// With 6 distinct lines and 8 ways, a fully sized cache only suffers the
	// 6 cold misses.
	if curve[8] != 6*4 {
		t.Errorf("curve[ways] = %d, want 24 (cold misses only)", curve[8])
	}
	// With 1 way a repeating 6-line sequence always misses.
	if curve[1] != a.accesses*4 {
		t.Errorf("curve[1] = %d, want all accesses to miss", curve[1])
	}
}

func TestMissCurvePropertyMonotone(t *testing.T) {
	f := func(addrs []uint16) bool {
		a, err := NewATD(64, 8, 16, 64)
		if err != nil {
			return false
		}
		for _, x := range addrs {
			a.Access(uint64(x) * 64)
		}
		curve := a.MissCurve()
		for w := 1; w < len(curve); w++ {
			if curve[w] > curve[w-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestATDResetCounters(t *testing.T) {
	a := mustATD(t, 64, 4, 64)
	a.Access(0x0)
	a.Access(0x0)
	a.ResetCounters()
	if a.accesses != 0 || a.MissCurve()[2] != 0 {
		t.Error("counters not cleared")
	}
	// Tag state must survive the reset: the line is still resident.
	if _, hit := a.Access(0x0); !hit {
		t.Error("ResetCounters must not flush ATD tags")
	}
}
