package ring

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/mem"
)

// defaultCfg is Table I's ring: 4-cycle hops, 32-entry queues, one request
// and one response ring.
func defaultCfg() *config.CMPConfig { return config.PaperConfig(2) }

func TestUnloadedLatency(t *testing.T) {
	r := New(defaultCfg())
	if r.Latency(0) != 4 {
		t.Errorf("core 0 latency = %d, want 4", r.Latency(0))
	}
	if r.Latency(7) <= r.Latency(0) {
		t.Error("distant cores should see higher hop latency")
	}
}

func TestSubmitDeliverTiming(t *testing.T) {
	r := New(defaultCfg())
	req := &mem.Request{ID: 1, Core: 0, Addr: 0x40}
	if !r.Submit(RequestRing, req, 100) {
		t.Fatal("submit failed")
	}
	// Not ready before the hop latency has elapsed.
	if got := r.Deliver(RequestRing, 101); len(got) != 0 {
		t.Fatalf("delivered too early: %v", got)
	}
	got := r.Deliver(RequestRing, 104)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("expected delivery at cycle 104, got %v", got)
	}
	if got[0].RingInterference != 0 {
		t.Error("uncontended request should have no ring interference")
	}
	if r.QueueLen(RequestRing) != 0 {
		t.Error("queue should be empty after delivery")
	}
}

func TestBandwidthLimitCausesInterference(t *testing.T) {
	r := New(defaultCfg())
	// Two same-cycle requests from different cores; one lane means the second
	// is delayed behind the first and must record interference.
	a := &mem.Request{ID: 1, Core: 0}
	b := &mem.Request{ID: 2, Core: 1}
	r.Submit(RequestRing, a, 0)
	r.Submit(RequestRing, b, 0)
	first := r.Deliver(RequestRing, 10)
	if len(first) != 1 {
		t.Fatalf("lane limit violated: delivered %d", len(first))
	}
	second := r.Deliver(RequestRing, 15)
	if len(second) != 1 {
		t.Fatalf("second request not delivered")
	}
	if second[0].RingInterference == 0 {
		t.Error("delayed request should record ring interference")
	}
}

func TestSoloCoreQueueingIsNotInterference(t *testing.T) {
	r := New(defaultCfg())
	a := &mem.Request{ID: 1, Core: 0}
	b := &mem.Request{ID: 2, Core: 0}
	r.Submit(RequestRing, a, 0)
	r.Submit(RequestRing, b, 0)
	r.Deliver(RequestRing, 10)
	out := r.Deliver(RequestRing, 20)
	if len(out) != 1 {
		t.Fatal("second request not delivered")
	}
	if out[0].RingInterference != 0 {
		t.Error("self-queueing must not count as interference")
	}
}

func TestQueueBackPressure(t *testing.T) {
	cfg := defaultCfg()
	cfg.Ring.QueueEntries = 2
	r := New(cfg)
	if !r.Submit(RequestRing, &mem.Request{ID: 1}, 0) || !r.Submit(RequestRing, &mem.Request{ID: 2}, 0) {
		t.Fatal("submissions under capacity failed")
	}
	if r.Submit(RequestRing, &mem.Request{ID: 3}, 0) {
		t.Error("submission over capacity accepted")
	}
}

func TestSeparateDirections(t *testing.T) {
	r := New(defaultCfg())
	r.Submit(RequestRing, &mem.Request{ID: 1, Core: 0}, 0)
	r.Submit(ResponseRing, &mem.Request{ID: 2, Core: 0}, 0)
	if r.QueueLen(RequestRing) != 1 || r.QueueLen(ResponseRing) != 1 {
		t.Error("directions should have independent queues")
	}
	if got := r.Deliver(ResponseRing, 100); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("response delivery wrong: %v", got)
	}
	reqs, rsps := r.Delivered()
	if reqs != 0 || rsps != 1 {
		t.Errorf("delivered counters = %d %d", reqs, rsps)
	}
}

func TestMultipleLanes(t *testing.T) {
	cfg := defaultCfg()
	cfg.Ring.RequestRings = 2
	r := New(cfg)
	r.Submit(RequestRing, &mem.Request{ID: 1, Core: 0}, 0)
	r.Submit(RequestRing, &mem.Request{ID: 2, Core: 1}, 0)
	r.Submit(RequestRing, &mem.Request{ID: 3, Core: 2}, 0)
	got := r.Deliver(RequestRing, 50)
	if len(got) != 2 {
		t.Errorf("2-lane ring should deliver 2 per cycle, got %d", len(got))
	}
}

func TestFIFOOrderWithinLane(t *testing.T) {
	r := New(defaultCfg())
	r.Submit(RequestRing, &mem.Request{ID: 1, Core: 0}, 0)
	r.Submit(RequestRing, &mem.Request{ID: 2, Core: 0}, 1)
	first := r.Deliver(RequestRing, 100)
	if len(first) != 1 || first[0].ID != 1 {
		t.Errorf("FIFO violated: %v", first)
	}
}

func TestDeliveryConservation(t *testing.T) {
	f := func(coreSel []uint8) bool {
		r := New(defaultCfg())
		if len(coreSel) > 30 {
			coreSel = coreSel[:30]
		}
		submitted := 0
		for i, c := range coreSel {
			req := &mem.Request{ID: uint64(i), Core: int(c % 4)}
			if r.Submit(RequestRing, req, uint64(i)) {
				submitted++
			}
		}
		delivered := 0
		for cyc := uint64(0); cyc < 10000 && delivered < submitted; cyc++ {
			delivered += len(r.Deliver(RequestRing, cyc))
		}
		return delivered == submitted && r.QueueLen(RequestRing) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTotalQueueingAccumulates(t *testing.T) {
	r := New(defaultCfg())
	for i := 0; i < 10; i++ {
		r.Submit(RequestRing, &mem.Request{ID: uint64(i), Core: i % 2}, 0)
	}
	for cyc := uint64(0); cyc < 100; cyc++ {
		r.Deliver(RequestRing, cyc)
	}
	if r.TotalQueueing() == 0 {
		t.Error("expected nonzero cumulative queueing for a burst of 10 requests")
	}
}
