package dief

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New(4); err != nil {
		t.Errorf("valid core count rejected: %v", err)
	}
}

func req(core int, latency, ringI, llcI, memI uint64) *mem.Request {
	return &mem.Request{
		Core:             core,
		IssueCycle:       1000,
		CompleteCycle:    1000 + latency,
		RingInterference: ringI,
		LLCInterference:  llcI,
		MemInterference:  memI,
	}
}

func TestPrivateLatencyIsSharedMinusInterference(t *testing.T) {
	e, _ := New(2)
	e.Observe(req(0, 300, 10, 50, 40))
	e.Observe(req(0, 100, 0, 0, 0))
	if got := e.SharedLatency(0); got != 200 {
		t.Errorf("shared latency = %v, want 200", got)
	}
	if got := e.Interference(0); got != 50 {
		t.Errorf("interference = %v, want 50", got)
	}
	if got := e.PrivateLatency(0); got != 150 {
		t.Errorf("private latency = %v, want 150", got)
	}
	if e.count[0] != 2 || e.count[1] != 0 {
		t.Error("per-core counts wrong")
	}
}

func TestInterferenceBreakdown(t *testing.T) {
	e, _ := New(1)
	e.Observe(req(0, 400, 20, 100, 60))
	r, l, m := e.InterferenceBreakdown(0)
	if r != 20 || l != 100 || m != 60 {
		t.Errorf("breakdown = %v %v %v", r, l, m)
	}
	e2, _ := New(1)
	if r, l, m := e2.InterferenceBreakdown(0); r != 0 || l != 0 || m != 0 {
		t.Error("empty estimator should report zero breakdown")
	}
}

func TestLatencyFloorClampsEstimate(t *testing.T) {
	e, _ := New(1)
	e.SetLatencyFloor(0, 40)
	// Interference estimate exceeds measured latency (possible with noisy
	// per-component counters): the private latency must not fall below floor.
	e.Observe(req(0, 100, 50, 50, 50))
	if got := e.PrivateLatency(0); got != 40 {
		t.Errorf("clamped private latency = %v, want floor 40", got)
	}
}

func TestNoObservationsGivesZero(t *testing.T) {
	e, _ := New(2)
	if e.SharedLatency(1) != 0 || e.Interference(1) != 0 || e.PrivateLatency(1) != 0 {
		t.Error("unobserved core should report zeros")
	}
}

func TestOutOfRangeCoreIgnored(t *testing.T) {
	e, _ := New(1)
	e.Observe(req(7, 100, 0, 0, 0))
	if e.count[0] != 0 {
		t.Error("request for out-of-range core must be ignored")
	}
}

func TestResetInterval(t *testing.T) {
	e, _ := New(1)
	e.SetLatencyFloor(0, 25)
	e.Observe(req(0, 300, 0, 0, 100))
	e.ResetInterval()
	if e.count[0] != 0 || e.SharedLatency(0) != 0 {
		t.Error("ResetInterval did not clear accumulators")
	}
	// The floor must survive resets.
	if e.PrivateLatency(0) != 25 {
		t.Errorf("floor lost after reset: %v", e.PrivateLatency(0))
	}
}

func TestPrivateLatencyNeverNegativeProperty(t *testing.T) {
	f := func(lat []uint16, intf []uint16) bool {
		e, err := New(1)
		if err != nil {
			return false
		}
		n := len(lat)
		if len(intf) < n {
			n = len(intf)
		}
		for i := 0; i < n; i++ {
			l := uint64(lat[i])
			e.Observe(req(0, l, 0, 0, uint64(intf[i])))
		}
		p := e.PrivateLatency(0)
		return p >= 0 && !math.IsNaN(p) && p <= e.SharedLatency(0)+1e-9 || e.count[0] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStorageBytesSetSamplingReduction(t *testing.T) {
	// 4-core configuration: 8 MB, 16-way, 64 B lines -> 8192 sets.
	fullMap, sampled := StorageBytes(4, 8192, 16, 32, 36)
	if sampled*50 > fullMap {
		t.Errorf("set sampling should cut storage by orders of magnitude: full=%d sampled=%d", fullMap, sampled)
	}
	if sampled > 20<<10 {
		t.Errorf("sampled DIEF storage = %d bytes, expected around 10 KB", sampled)
	}
	if fullMap < 500<<10 {
		t.Errorf("full-map DIEF storage = %d bytes, expected around 1-2 MB", fullMap)
	}
	// More cores cost proportionally more.
	_, s8 := StorageBytes(8, 16384, 16, 32, 36)
	if s8 <= sampled {
		t.Error("8-core DIEF should need more storage than 4-core")
	}
}
