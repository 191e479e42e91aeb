package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/mem"
)

// testConfig is Table I's DDR2-800 controller with one channel.
func testConfig() config.DRAMConfig { return config.PaperConfig(2).DRAM }

// testCores is the core count the test controllers serve: the tests issue
// requests from cores 0 to 3.
const testCores = 4

// drain runs the controller until n reads complete or maxCycles elapse.
func drain(c *Controller, start uint64, n int, maxCycles uint64) []*mem.Request {
	var done []*mem.Request
	for cyc := start; cyc < start+maxCycles && len(done) < n; cyc++ {
		done = append(done, c.Tick(cyc)...)
	}
	return done
}

func TestSingleReadLatency(t *testing.T) {
	c := New(testConfig(), testCores)
	req := &mem.Request{ID: 1, Core: 0, Addr: 0x1000}
	if !c.Enqueue(req, 100) {
		t.Fatal("enqueue failed")
	}
	done := drain(c, 100, 1, 10000)
	if len(done) != 1 {
		t.Fatal("request never completed")
	}
	// Cold bank: row closed -> TRCD + TCAS + Burst = 120 cycles.
	lat := done[0].CompleteCycle - done[0].MemArrival
	if lat < 120 || lat > 130 {
		t.Errorf("isolated read latency = %d, want about 120", lat)
	}
	if done[0].MemInterference != 0 {
		t.Error("isolated read should have no interference")
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	c := New(testConfig(), testCores)
	// Two reads to the same row back to back: second should be a row hit.
	a := &mem.Request{ID: 1, Core: 0, Addr: 0x0}
	b := &mem.Request{ID: 2, Core: 0, Addr: 0x40}
	c.Enqueue(a, 0)
	c.Enqueue(b, 0)
	done := drain(c, 0, 2, 10000)
	if len(done) != 2 {
		t.Fatal("requests did not complete")
	}
	st := c.Stats()
	if st.RowHits < 1 {
		t.Errorf("expected at least one row hit, stats %+v", st)
	}
	// A conflicting row in the same bank should be slower than a row hit.
	conflictAddr := uint64(testConfig().PageBytes * testConfig().BanksPerChan * 1)
	cc := &mem.Request{ID: 3, Core: 0, Addr: conflictAddr}
	now := done[1].CompleteCycle + 1
	c.Enqueue(cc, now)
	done2 := drain(c, now, 1, 10000)
	if len(done2) != 1 {
		t.Fatal("conflict request did not complete")
	}
	if got := c.Stats().RowConflicts; got < 1 {
		t.Errorf("expected a row conflict, stats %+v", c.Stats())
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	c := New(testConfig(), testCores)
	// Open a row with request 1.
	first := &mem.Request{ID: 1, Core: 0, Addr: 0x0}
	c.Enqueue(first, 0)
	drain(c, 0, 1, 1000)

	// Now enqueue a conflicting request (older) and a row-hit request (newer)
	// to the same bank. FR-FCFS should service the row hit first.
	conflict := &mem.Request{ID: 2, Core: 0, Addr: uint64(testConfig().PageBytes * testConfig().BanksPerChan)}
	rowHit := &mem.Request{ID: 3, Core: 0, Addr: 0x80}
	now := uint64(500)
	c.Enqueue(conflict, now)
	c.Enqueue(rowHit, now+1)
	done := drain(c, now+2, 2, 10000)
	if len(done) != 2 {
		t.Fatal("requests did not complete")
	}
	if done[0].ID != 3 {
		t.Errorf("FR-FCFS serviced %d first, want the row hit (3)", done[0].ID)
	}
}

// TestEpochOwnerRotates pins ASM's schedule: epoch k covers cycles
// [k·epoch, (k+1)·epoch) and belongs to core k mod cores.
func TestEpochOwnerRotates(t *testing.T) {
	for _, c := range []struct {
		cycle, epoch uint64
		cores, owner int
	}{
		{0, 100, 3, 0}, {99, 100, 3, 0}, {100, 100, 3, 1}, {299, 100, 3, 2}, {300, 100, 3, 0},
		{7, 1, 4, 3}, {1 << 40, 1 << 40, 2, 1}, {12345, 5000, 1, 0},
	} {
		if got := EpochOwner(c.cycle, c.epoch, c.cores); got != c.owner {
			t.Errorf("EpochOwner(%d, %d, %d) = %d, want %d", c.cycle, c.epoch, c.cores, got, c.owner)
		}
	}
}

// TestRotationOverridesFRFCFS: two same-bank reads, the older from one core
// and the younger from the other. Pure FR-FCFS serves the older first; under
// a rotation the epoch owner's goes first, whichever core that is.
func TestRotationOverridesFRFCFS(t *testing.T) {
	const epoch = 1000
	for _, c := range []struct {
		name     string
		epoch    uint64
		start    uint64 // arrival cycle of the older request
		older    int    // core of the older request
		wantCore int    // core served first
	}{
		{"no rotation", 0, 0, 0, 0},
		{"core 1's epoch", epoch, epoch, 0, 1},
		{"core 0's epoch", epoch, 2 * epoch, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctl := New(testConfig(), testCores)
			ctl.SetRotation(c.epoch, 2)
			a := &mem.Request{ID: 1, Core: c.older, Addr: 0x0}
			b := &mem.Request{ID: 2, Core: 1 - c.older, Addr: uint64(testConfig().PageBytes * testConfig().BanksPerChan)}
			ctl.Enqueue(a, c.start)
			ctl.Enqueue(b, c.start+1)
			done := drain(ctl, c.start+2, 2, 20000)
			if len(done) != 2 {
				t.Fatal("requests did not complete")
			}
			if done[0].Core != c.wantCore {
				t.Errorf("core %d completed first, want core %d", done[0].Core, c.wantCore)
			}
		})
	}
}

func TestInterferenceAttributedToOtherCores(t *testing.T) {
	c := New(testConfig(), testCores)
	// Saturate with core-1 traffic, then a single core-0 read.
	for i := 0; i < 8; i++ {
		c.Enqueue(&mem.Request{ID: uint64(i), Core: 1, Addr: uint64(i * 0x40)}, 0)
	}
	victim := &mem.Request{ID: 99, Core: 0, Addr: 0x40 * 100}
	c.Enqueue(victim, 0)
	done := drain(c, 0, 9, 100000)
	if len(done) != 9 {
		t.Fatal("requests did not complete")
	}
	if victim.MemInterference == 0 {
		t.Error("victim request behind 8 other-core requests should record memory interference")
	}
}

func TestSoloCoreHasNoInterference(t *testing.T) {
	c := New(testConfig(), testCores)
	var reqs []*mem.Request
	for i := 0; i < 10; i++ {
		r := &mem.Request{ID: uint64(i), Core: 0, Addr: uint64(i) * 0x40 * 37}
		reqs = append(reqs, r)
		c.Enqueue(r, 0)
	}
	drain(c, 0, 10, 100000)
	for _, r := range reqs {
		if r.MemInterference != 0 {
			t.Errorf("request %d has interference %d with only one core active", r.ID, r.MemInterference)
		}
	}
}

func TestQueueCapacityAndCanAccept(t *testing.T) {
	cfg := testConfig()
	cfg.ReadQueue = 2
	c := New(cfg, testCores)
	if !c.Enqueue(&mem.Request{ID: 1, Addr: 0x40}, 0) || !c.Enqueue(&mem.Request{ID: 2, Addr: 0x80}, 0) {
		t.Fatal("enqueue under capacity failed")
	}
	if c.Enqueue(&mem.Request{ID: 3, Addr: 0xc0}, 0) {
		t.Error("enqueue over capacity accepted")
	}
	if c.CanAccept(0x100, false) {
		t.Error("CanAccept should report a full read queue")
	}
	if !c.CanAccept(0x100, true) {
		t.Error("write queue should still accept")
	}
	if c.QueueOccupancy() != 2 {
		t.Errorf("occupancy = %d, want 2", c.QueueOccupancy())
	}
}

func TestWritesDrainWhenIdle(t *testing.T) {
	c := New(testConfig(), testCores)
	w := &mem.Request{ID: 1, Core: 0, Addr: 0x1000, IsWrite: true}
	if !c.Enqueue(w, 0) {
		t.Fatal("write enqueue failed")
	}
	for cyc := uint64(0); cyc < 1000; cyc++ {
		c.Tick(cyc)
	}
	if c.Stats().Writes != 1 {
		t.Error("write not counted")
	}
	// The bank should now have an open row from the write (observable via a
	// subsequent row hit).
	r := &mem.Request{ID: 2, Core: 0, Addr: 0x1040}
	c.Enqueue(r, 2000)
	drain(c, 2000, 1, 10000)
	if c.Stats().RowHits < 1 {
		t.Error("read after write to same row should be a row hit")
	}
}

func TestMultiChannelParallelism(t *testing.T) {
	single := New(testConfig(), testCores)
	multiCfg := testConfig()
	multiCfg.Channels = 4
	multi := New(multiCfg, testCores)

	run := func(c *Controller) uint64 {
		n := 32
		for i := 0; i < n; i++ {
			c.Enqueue(&mem.Request{ID: uint64(i), Core: 0, Addr: uint64(i) * 64}, 0)
		}
		done := drain(c, 0, n, 1000000)
		var last uint64
		for _, d := range done {
			if d.CompleteCycle > last {
				last = d.CompleteCycle
			}
		}
		return last
	}
	if tMulti, tSingle := run(multi), run(single); tMulti >= tSingle {
		t.Errorf("4-channel system should finish the burst faster: multi=%d single=%d", tMulti, tSingle)
	}
}

func TestStatsAverageLatency(t *testing.T) {
	c := New(testConfig(), testCores)
	c.Enqueue(&mem.Request{ID: 1, Core: 0, Addr: 0x40}, 0)
	drain(c, 0, 1, 10000)
	if c.Stats().AvgReadLatency <= 0 {
		t.Error("average read latency should be positive after a completed read")
	}
}

func TestAllEnqueuedReadsEventuallyComplete(t *testing.T) {
	f := func(addrs []uint32, cores []uint8) bool {
		c := New(testConfig(), testCores)
		n := len(addrs)
		if n > 40 {
			n = 40
		}
		enqueued := 0
		for i := 0; i < n; i++ {
			core := 0
			if len(cores) > 0 {
				core = int(cores[i%len(cores)] % 4)
			}
			if c.Enqueue(&mem.Request{ID: uint64(i), Core: core, Addr: uint64(addrs[i]) &^ 63}, 0) {
				enqueued++
			}
		}
		done := drain(c, 0, enqueued, 1000000)
		return len(done) == enqueued
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
