package core

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func newGDP(t *testing.T, opts Options) *GDP {
	t.Helper()
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{PRBEntries: 0}); err == nil {
		t.Error("zero-entry PRB accepted")
	}
}

// playLoadBurst drives the GDP unit with a simple scenario: nLoads issued
// during one commit period, all completing, then a stall on the first and a
// resume. Returns the unit.
func playLoadBurst(g *GDP, nLoads int, serialized bool) {
	cycle := uint64(100)
	for i := 0; i < nLoads; i++ {
		g.OnLoadIssued(uint64(0x1000+i*64), cycle, 0)
		cycle += 2
	}
	stallAddr := uint64(0x1000)
	g.OnCommitStall(stallAddr, true, cycle)
	// All loads complete during the stall.
	completeAt := cycle + 200
	for i := 0; i < nLoads; i++ {
		g.OnLoadCompleted(uint64(0x1000+i*64), true, completeAt, 200, 0, 0)
		completeAt += 5
	}
	g.OnCommitResume(stallAddr, true, completeAt)
	_ = serialized
}

func TestParallelLoadsCountOnceInCPL(t *testing.T) {
	// Five independent loads issued in the same commit period and serviced in
	// parallel form a single level of the dependency graph: CPL must grow by
	// 1, not 5 (this is the MLP insight of Section II).
	g := newGDP(t, Options{PRBEntries: 32})
	playLoadBurst(g, 5, false)
	if got := g.CPL(); got != 1 {
		t.Errorf("CPL after one parallel load burst = %d, want 1", got)
	}
}

func TestSerializedLoadsGrowCPL(t *testing.T) {
	// Pointer chasing: each load is issued only after the previous one
	// completed and commit resumed. Every load adds a graph level.
	g := newGDP(t, Options{PRBEntries: 32})
	cycle := uint64(0)
	const chain = 7
	for i := 0; i < chain; i++ {
		addr := uint64(0x2000 + i*64)
		g.OnLoadIssued(addr, cycle, 0)
		g.OnCommitStall(addr, true, cycle+1)
		g.OnLoadCompleted(addr, true, cycle+100, 100, 0, 0)
		g.OnCommitResume(addr, true, cycle+101)
		cycle += 110
	}
	if got := g.CPL(); got != chain {
		t.Errorf("CPL after a %d-long pointer chase = %d, want %d", chain, got, chain)
	}
}

func TestPaperFigure1Example(t *testing.T) {
	// Reproduces the shared-mode scenario of Figure 1: five loads and five
	// commit periods. L1, L2, L3 are issued during C1 and serviced in
	// parallel; L4 is issued during C4 (it depends on C4's instructions);
	// L5 is issued during C4 as well and overlaps L4; the critical path is
	// C1 -> L2/L3 -> ... with two loads on it (CPL = 2) per Figure 1b,
	// and after the L4/L5 level the total becomes 3 levels of loads of which
	// the paper counts CPL = 2 for the first retrieval window shown.
	g := newGDP(t, Options{PRBEntries: 32})

	// Commit period C1 runs until cycle 50; L1..L3 issue during it.
	g.OnLoadIssued(0x100, 10, 0) // L1
	g.OnLoadIssued(0x200, 20, 0) // L2
	g.OnLoadIssued(0x300, 30, 0) // L3
	// CPU stalls on L1 at cycle 50 (end of C1).
	g.OnCommitStall(0x100, true, 50)
	// L1 completes at 150; commit resumes (C2).
	g.OnLoadCompleted(0x100, true, 150, 140, 0, 0)
	g.OnCommitResume(0x100, true, 151)
	// C2 commits briefly, stalls on L2 at 160.
	g.OnCommitStall(0x200, true, 160)
	g.OnLoadCompleted(0x200, true, 250, 230, 0, 0)
	g.OnCommitResume(0x200, true, 251)
	// C3 commits, stalls on L3.
	g.OnCommitStall(0x300, true, 260)
	g.OnLoadCompleted(0x300, true, 300, 270, 0, 0)
	g.OnCommitResume(0x300, true, 301)

	// After the first burst the three parallel loads contribute one level.
	if got := g.CPL(); got != 1 {
		t.Fatalf("CPL after parallel burst = %d, want 1", got)
	}

	// C4 issues L4 and L5 (parallel pair), stalls on L4.
	g.OnLoadIssued(0x400, 320, 0)
	g.OnLoadIssued(0x500, 330, 0)
	g.OnCommitStall(0x400, true, 340)
	g.OnLoadCompleted(0x400, true, 450, 130, 0, 0)
	g.OnLoadCompleted(0x500, true, 460, 130, 0, 0)
	g.OnCommitResume(0x400, true, 461)

	// The L4/L5 level adds one more critical load: CPL = 2, matching the
	// "two loads on the critical paths" annotation of Figure 1b.
	if got := g.CPL(); got != 2 {
		t.Errorf("CPL for the Figure 1 scenario = %d, want 2", got)
	}
}

func TestPMSLoadsDoNotAffectCPL(t *testing.T) {
	g := newGDP(t, Options{PRBEntries: 32})
	// A PMS load enters the PRB (Algorithm 1) but is invalidated on
	// completion (Algorithm 2) and its stall does not modify the CPL.
	g.OnLoadIssued(0x700, 10, 0)
	g.OnLoadCompleted(0x700, false, 20, 9, 0, 0)
	g.OnCommitStall(0x700, false, 15)
	g.OnCommitResume(0x700, false, 21)
	if g.CPL() != 0 {
		t.Errorf("PMS-only activity produced CPL %d, want 0", g.CPL())
	}
}

func TestUnknownResumeAddressIsIgnored(t *testing.T) {
	g := newGDP(t, Options{PRBEntries: 32})
	g.OnCommitStall(0xdead, true, 5)
	g.OnCommitResume(0xdead, true, 10) // never issued -> PRB miss
	if g.CPL() != 0 {
		t.Error("resume on unknown address must not change the CPL")
	}
}

func TestPRBEvictionOnOverflow(t *testing.T) {
	g := newGDP(t, Options{PRBEntries: 4})
	for i := 0; i < 10; i++ {
		g.OnLoadIssued(uint64(0x1000+i*64), uint64(i), 0)
	}
	_, evictions, _ := g.Diagnostics()
	if evictions == 0 {
		t.Error("overflowing a 4-entry PRB should evict oldest entries")
	}
	// The unit must still work after overflow.
	addr := uint64(0x1000 + 9*64)
	g.OnCommitStall(addr, true, 100)
	g.OnLoadCompleted(addr, true, 200, 100, 0, 0)
	g.OnCommitResume(addr, true, 201)
	if g.CPL() == 0 {
		t.Error("CPL should still advance after PRB overflow")
	}
}

func TestPRBRingWrapIsNoEviction(t *testing.T) {
	// Pairs of loads that are issued, completed and absorbed never fill a
	// 4-entry PRB, although the ring pointers wrap onto slots that are
	// already free: no valid request is dropped, so none is counted.
	g := newGDP(t, Options{PRBEntries: 4})
	cycle := uint64(0)
	for i := 0; i < 20; i++ {
		a, b := uint64(0x1000+i*128), uint64(0x1040+i*128)
		g.OnLoadIssued(a, cycle, 0)
		g.OnLoadIssued(b, cycle+1, 0)
		g.OnCommitStall(a, true, cycle+2)
		g.OnLoadCompleted(a, true, cycle+50, 48, 0, 0)
		g.OnLoadCompleted(b, true, cycle+51, 48, 0, 0)
		g.OnCommitResume(a, true, cycle+52)
		cycle += 60
	}
	insertions, evictions, _ := g.Diagnostics()
	if insertions != 40 || evictions != 0 {
		t.Errorf("Diagnostics = %d insertions, %d evictions; want 40, 0", insertions, evictions)
	}
}

func TestRetrieveResetsInterval(t *testing.T) {
	g := newGDP(t, Options{PRBEntries: 32})
	playLoadBurst(g, 3, false)
	cpl, _ := g.Retrieve()
	if cpl != 1 {
		t.Fatalf("first interval CPL = %d, want 1", cpl)
	}
	if g.CPL() != 0 {
		t.Error("CPL should reset after Retrieve")
	}
	playLoadBurst(g, 2, false)
	cpl, _ = g.Retrieve()
	if cpl != 1 {
		t.Errorf("second interval CPL = %d, want 1", cpl)
	}
}

func TestOverlapTracking(t *testing.T) {
	g := newGDP(t, Options{PRBEntries: 32, TrackOverlap: true})
	// The core had committed on 40 cycles when the load issued, and on 25
	// more (besides stalled cycles, which the count leaves out) by the time it
	// completed.
	g.OnLoadIssued(0x100, 0, 40)
	g.OnLoadCompleted(0x100, true, 100, 100, 0, 65)
	if got := g.AvgOverlap(); got != 25 {
		t.Errorf("average overlap = %v, want 25", got)
	}
	// Overlap stops accumulating after completion: a second completion of the
	// same entry adds the frozen value again.
	g.OnLoadIssued(0x200, 101, 70)
	if got := g.AvgOverlap(); got != 25 {
		t.Errorf("overlap changed after completion: %v", got)
	}
	g.OnLoadCompleted(0x100, true, 102, 100, 0, 70)
	if got := g.AvgOverlap(); got != 25 {
		t.Errorf("overlap changed after completion: %v", got)
	}
	_, overlap := g.Retrieve()
	if overlap != 25 {
		t.Errorf("Retrieve overlap = %v, want 25", overlap)
	}
	if g.AvgOverlap() != 0 {
		t.Error("overlap should reset after Retrieve")
	}
}

func TestPlainGDPIgnoresOverlap(t *testing.T) {
	g := newGDP(t, Options{PRBEntries: 32})
	g.OnLoadIssued(0x100, 0, 0)
	g.OnLoadCompleted(0x100, true, 100, 100, 0, 25)
	if g.AvgOverlap() != 0 {
		t.Error("plain GDP must not track overlap")
	}
}

func TestStorageOverheadMatchesPaper(t *testing.T) {
	gdp := newGDP(t, Options{PRBEntries: 32})
	gdpo := newGDP(t, Options{PRBEntries: 32, TrackOverlap: true})
	if got := gdp.StorageBits(); got != 3117 {
		t.Errorf("GDP storage = %d bits, paper reports 3117", got)
	}
	if got := gdpo.StorageBits(); got != 3597 {
		t.Errorf("GDP-O storage = %d bits, paper reports 3597", got)
	}
}

func TestPRBEntryStaysSmall(t *testing.T) {
	// The private reference allocates a 4096-entry PRB per run: the simulator's
	// bookkeeping (overlap base, child bit) must not widen the entry past
	// the 40 bytes the original five fields plus one overlap counter took.
	if got := unsafe.Sizeof(prbEntry{}); got > 40 {
		t.Errorf("prbEntry is %d bytes, want at most 40", got)
	}
}

func TestEstimateLatencyCyclesMatchesPaper(t *testing.T) {
	if got := Equation2LatencyCycles(); got != 61 {
		// 2*25 + 2*3 + 5*1 = 61; the paper rounds its discussion to "71
		// cycles" including operand fetch, so accept either arithmetic.
		if got != 71 {
			t.Errorf("estimate latency = %d cycles, want 61 (or the paper's 71)", got)
		}
	}
}

func TestCPLNeverNegativeProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		g, err := New(Options{PRBEntries: 8, TrackOverlap: true})
		if err != nil {
			return false
		}
		cycle, commits := uint64(0), uint64(0)
		pendingAddrs := []uint64{}
		for _, op := range ops {
			cycle += 3
			addr := uint64(0x1000 + int(op%16)*64)
			switch op % 5 {
			case 0:
				g.OnLoadIssued(addr, cycle, commits)
				pendingAddrs = append(pendingAddrs, addr)
			case 1:
				g.OnLoadCompleted(addr, op%2 == 0, cycle, 100, 10, commits)
			case 2:
				g.OnCommitStall(addr, true, cycle)
			case 3:
				g.OnCommitResume(addr, true, cycle)
			case 4:
				if op%3 == 0 { // a committing cycle
					commits++
				}
			}
		}
		prev := uint64(0)
		cpl := g.CPL()
		if cpl > uint64(len(ops))+1 {
			return false
		}
		// Retrieval is monotone and resets.
		got, _ := g.Retrieve()
		if got != cpl {
			return false
		}
		return g.CPL() >= prev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
