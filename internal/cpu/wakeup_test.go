package cpu

import (
	"math/bits"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// oracleDepsReadyAt is the polling computation the wake-up state replaced,
// kept as the brute-force oracle: it re-derives both producers of e from
// their dependency distances and returns the cycle at which they are all
// complete. external reports that a producer's completion cycle is unknown.
func (c *Core) oracleDepsReadyAt(e *robEntry) (ready uint64, external bool) {
	for _, dist := range []int32{e.inst.Dep1, e.inst.Dep2} {
		if dist <= 0 {
			continue
		}
		if uint64(dist) > e.index {
			continue
		}
		dep := c.entryFor(e.index - uint64(dist))
		if dep == nil {
			continue // already committed, hence complete
		}
		if dep.complete == unknownCycle {
			return 0, true
		}
		if dep.complete > ready {
			ready = dep.complete
		}
	}
	return ready, false
}

// oracleDepsReady is the polling form of "e may issue at now".
func (c *Core) oracleDepsReady(e *robEntry, now uint64) bool {
	for _, dist := range []int32{e.inst.Dep1, e.inst.Dep2} {
		if dist <= 0 {
			continue
		}
		if uint64(dist) > e.index {
			continue
		}
		dep := c.entryFor(e.index - uint64(dist))
		if dep == nil {
			continue // already committed, hence complete
		}
		if dep.complete == unknownCycle || dep.complete > now {
			return false
		}
	}
	return true
}

// wakeCoverage counts the corner cases checkWakeState has seen, so the test
// can require that the run exercised them.
type wakeCoverage struct {
	sameProducer      int // Dep1 == Dep2 naming a producer still in the ROB
	committedProducer int // a producer already committed when its consumer dispatched
	wrapped           int // live entries straddling the end of the ring
	unresolved        int // entries waiting on an unknown completion
	merged            int // loads merged onto another load's outstanding miss
}

// checkWakeState compares the wake-up state of every un-issued ROB entry with
// the polling oracle at cycle now, and the issue-queue bookkeeping (unissued,
// the resolved mask, the wake lists) with the ROB contents. Instructions from
// index newFrom on were dispatched since the previous check.
func checkWakeState(t *testing.T, c *Core, now, newFrom uint64, cov *wakeCoverage) {
	t.Helper()
	if c.robHead+c.robCount > len(c.rob) {
		cov.wrapped++
	}
	for _, w := range c.pending {
		cov.merged += len(w.merged)
	}
	unissued, resolved := 0, 0
	for qi := 0; qi < c.robCount; qi++ {
		slot := c.robSlot(qi)
		e := &c.rob[slot]
		bit := c.resolved[slot>>6]>>(slot&63)&1 == 1
		if e.complete != unknownCycle && e.wakeHead != 0 {
			t.Fatalf("cycle %d: inst %d completes at %d but still has consumers on its wake list", now, e.index, e.complete)
		}
		if e.issued {
			if bit {
				t.Fatalf("cycle %d: issued inst %d still marked resolved", now, e.index)
			}
			continue
		}
		unissued++

		unknown := 0
		var producer [2]*robEntry
		for op, dist := range []int32{e.inst.Dep1, e.inst.Dep2} {
			if dist <= 0 || uint64(dist) > e.index {
				continue
			}
			switch p := c.entryFor(e.index - uint64(dist)); {
			case p == nil:
				if e.index >= newFrom {
					cov.committedProducer++
				}
			case p.complete == unknownCycle:
				unknown++
				fallthrough
			default:
				producer[op] = p
			}
		}
		if producer[0] != nil && producer[0] == producer[1] {
			cov.sameProducer++
		}
		if int(e.waiting) != unknown {
			t.Fatalf("cycle %d: inst %d (deps %d,%d) waiting = %d, oracle counts %d unknown producers",
				now, e.index, e.inst.Dep1, e.inst.Dep2, e.waiting, unknown)
		}

		ready, external := c.oracleDepsReadyAt(e)
		if external != (e.waiting != 0) || bit == external {
			t.Fatalf("cycle %d: inst %d waiting = %d, resolved bit %v, oracle external = %v",
				now, e.index, e.waiting, bit, external)
		}
		if external {
			cov.unresolved++
			continue
		}
		resolved++
		// readyAt also remembers producers that have since committed; those
		// completed at or before now, so it may exceed the oracle's figure
		// only while both lie in the past.
		if e.readyAt < ready || (e.readyAt != ready && e.readyAt > now) {
			t.Fatalf("cycle %d: inst %d readyAt = %d, oracle ready = %d", now, e.index, e.readyAt, ready)
		}
		if got, want := e.readyAt <= now, c.oracleDepsReady(e, now); got != want {
			t.Fatalf("cycle %d: inst %d ready now = %v, oracle %v", now, e.index, got, want)
		}
	}
	if unissued != c.unissued {
		t.Fatalf("cycle %d: unissued = %d, ROB holds %d un-issued entries", now, c.unissued, unissued)
	}
	set := 0
	for _, w := range c.resolved {
		set += bits.OnesCount64(w)
	}
	if set != resolved {
		t.Fatalf("cycle %d: %d resolved bits set, %d live entries are resolved", now, set, resolved)
	}
}

// TestWakeupMatchesPollingOracle drives every scenario's benchmarks (the two
// per-slot profile variants alternately) and the MSHR-merging conflict stream
// against a memory with seeded pseudo-random latencies, and checks the wake-up
// state against the polling oracle after every CompleteRequest and every Tick.
func TestWakeupMatchesPollingOracle(t *testing.T) {
	const cycles = 20000
	streams := []trace.Params{conflictParams()}
	for i, name := range workload.ScenarioNames() {
		streams = append(streams, scenarioParams(t, name, i%2))
	}
	var cov wakeCoverage
	for i, params := range streams {
		fm := &fakeMem{latency: 40, jitter: 400, seed: uint64(i) + 1}
		core := newSeededCore(t, params, int64(100+i), fm)
		for now := uint64(0); now < cycles; now++ {
			for _, req := range fm.completions(now) {
				core.CompleteRequest(req, now)
				checkWakeState(t, core, now, core.instIndex, &cov)
			}
			newFrom := core.instIndex
			core.Tick(now)
			checkWakeState(t, core, now, newFrom, &cov)
		}
		if core.Stats().SMSLoads == 0 {
			t.Errorf("stream %d: no shared-memory load completed; wake-on-completion was not exercised", i)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.sameProducer == 0 || cov.committedProducer == 0 || cov.wrapped == 0 || cov.unresolved == 0 || cov.merged == 0 {
		t.Errorf("corner cases not all exercised: %+v", cov)
	}
}
