package core

import (
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// oracleGDP is the straightforward O(PRB) implementation of Algorithms 1-3:
// every committing cycle walks the whole PRB to grow each pending entry's
// overlap, and a commit resume walks it four times. It is the unit's
// behavioural reference: GDP keeps the same books in O(live entries) per
// event and must agree with it after every event. Its only departure from
// the original code is the eviction counter, which counts dropped valid
// entries rather than ring wraps.
type oracleGDP struct {
	opts Options

	prb    []oracleEntry
	newest int
	oldest int
	pcb    oraclePCB

	lastRetrievedDepth uint64

	overlapSum      uint64
	overlapSMSLoads uint64

	insertions uint64
	evictions  uint64
	cplUpdates uint64
}

type oracleEntry struct {
	addr        uint64
	depth       uint64
	completedAt uint64
	overlap     uint64
	completed   bool
	valid       bool
}

type oraclePCB struct {
	depth     uint64
	startedAt uint64
	stalledAt uint64
	stalled   bool
	children  []bool
}

func newOracle(opts Options) *oracleGDP {
	return &oracleGDP{
		opts: opts,
		prb:  make([]oracleEntry, opts.PRBEntries),
		pcb:  oraclePCB{children: make([]bool, opts.PRBEntries)},
	}
}

func (g *oracleGDP) findByAddr(addr uint64) int {
	for i := range g.prb {
		if g.prb[i].valid && g.prb[i].addr == addr {
			return i
		}
	}
	return -1
}

func (g *oracleGDP) OnLoadIssued(addr uint64, cycle uint64) {
	if g.prb[g.newest].valid {
		g.newest = (g.newest + 1) % len(g.prb)
		if g.newest == g.oldest {
			if g.prb[g.newest].valid {
				g.evictions++
			}
			g.prb[g.newest].valid = false
			g.pcb.children[g.newest] = false
			g.oldest = (g.oldest + 1) % len(g.prb)
		}
	}
	g.prb[g.newest] = oracleEntry{
		addr:  addr,
		depth: g.pcb.depth,
		valid: true,
	}
	g.pcb.children[g.newest] = true
	g.insertions++
}

func (g *oracleGDP) OnLoadCompleted(addr uint64, sms bool, cycle uint64, latency, interference uint64) {
	idx := g.findByAddr(addr)
	if idx < 0 {
		return
	}
	if sms {
		g.prb[idx].completed = true
		g.prb[idx].completedAt = cycle
		if g.opts.TrackOverlap {
			g.overlapSum += g.prb[idx].overlap
			g.overlapSMSLoads++
		}
		return
	}
	g.prb[idx].valid = false
	g.pcb.children[idx] = false
}

func (g *oracleGDP) OnCommitStall(addr uint64, sms bool, cycle uint64) {
	if !g.pcb.stalled {
		g.pcb.stalledAt = cycle
		g.pcb.stalled = true
	}
}

func (g *oracleGDP) OnCommitResume(addr uint64, wasSMS bool, cycle uint64) {
	defer func() { g.pcb.stalled = false }()

	sIdx := g.findByAddr(addr)
	if sIdx < 0 {
		return
	}
	stallStart := g.pcb.stalledAt
	if !g.pcb.stalled {
		stallStart = cycle
	}
	for i := range g.prb {
		e := &g.prb[i]
		if e.valid && e.completed && e.completedAt < stallStart {
			if e.depth > g.pcb.depth {
				g.pcb.depth = e.depth
			}
			e.valid = false
			g.pcb.children[i] = false
		}
	}
	childDepth := g.pcb.depth + 1
	for i, isChild := range g.pcb.children {
		if isChild && g.prb[i].valid {
			g.prb[i].depth = childDepth
		}
	}
	g.cplUpdates++

	newDepth := g.prb[sIdx].depth
	for i := range g.prb {
		e := &g.prb[i]
		if e.valid && e.completed {
			if e.depth > newDepth {
				newDepth = e.depth
			}
			e.valid = false
			g.pcb.children[i] = false
		}
	}
	g.pcb.depth = newDepth
	g.pcb.startedAt = cycle
	for i := range g.pcb.children {
		g.pcb.children[i] = false
	}
}

func (g *oracleGDP) OnCycles(state *cpu.CycleState, cycles uint64) {
	if !g.opts.TrackOverlap || !state.Committing {
		return
	}
	for i := range g.prb {
		if g.prb[i].valid && !g.prb[i].completed {
			g.prb[i].overlap += cycles
		}
	}
}

func (g *oracleGDP) CPL() uint64 {
	if g.pcb.depth < g.lastRetrievedDepth {
		return 0
	}
	return g.pcb.depth - g.lastRetrievedDepth
}

func (g *oracleGDP) AvgOverlap() float64 {
	if g.overlapSMSLoads == 0 {
		return 0
	}
	return float64(g.overlapSum) / float64(g.overlapSMSLoads)
}

func (g *oracleGDP) Retrieve() (cpl uint64, avgOverlap float64) {
	cpl = g.CPL()
	avgOverlap = g.AvgOverlap()
	g.lastRetrievedDepth = g.pcb.depth
	g.overlapSum = 0
	g.overlapSMSLoads = 0
	return cpl, avgOverlap
}

func (g *oracleGDP) Diagnostics() (insertions, evictions, cplUpdates uint64) {
	return g.insertions, g.evictions, g.cplUpdates
}

// oraclePRBSizes are the PRB sizes the unit is checked at: degenerate rings,
// the paper's 32 entries and the private reference's size.
var oraclePRBSizes = []int{1, 2, 4, 32, 4096}

// oracleAddrPool is small so the same address is often live in several
// PRB entries at once, which exercises the lowest-slot lookup rule.
const oracleAddrPool = 6

// replayAgainstOracle decodes ops into a stream of unit events, feeds it to
// g and to a fresh oracle with the same options, and fails t at the first
// event after which their observable state differs or the live list breaks
// its invariants. Each op byte selects an event and its address; the
// following byte (when present) sizes it.
func replayAgainstOracle(t *testing.T, g *GDP, ops []byte) {
	t.Helper()
	o := newOracle(g.opts)
	cycle := uint64(0)
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		arg := uint64(0)
		if i+1 < len(ops) {
			arg = uint64(ops[i+1])
		}
		addr := 0x1000 + uint64(op>>4)%oracleAddrPool*64
		cycle += 1 + arg%7
		var what string
		switch op % 10 {
		case 0, 1:
			what = "issue"
			g.OnLoadIssued(addr, cycle)
			o.OnLoadIssued(addr, cycle)
		case 2, 3:
			what = "sms-complete"
			g.OnLoadCompleted(addr, true, cycle, 100, 10)
			o.OnLoadCompleted(addr, true, cycle, 100, 10)
		case 4:
			what = "pms-complete"
			g.OnLoadCompleted(addr, false, cycle, 10, 0)
			o.OnLoadCompleted(addr, false, cycle, 10, 0)
		case 5:
			what = "stall"
			g.OnCommitStall(addr, op&1 == 0, cycle)
			o.OnCommitStall(addr, op&1 == 0, cycle)
		case 6:
			what = "resume"
			g.OnCommitResume(addr, op&1 == 0, cycle)
			o.OnCommitResume(addr, op&1 == 0, cycle)
		case 7:
			what = "committing-cycle"
			g.OnCycles(&cpu.CycleState{Committing: true}, 1)
			o.OnCycles(&cpu.CycleState{Committing: true}, 1)
		case 8:
			what = "span"
			st := cpu.CycleState{Committing: arg&1 == 0}
			g.OnCycles(&st, arg)
			o.OnCycles(&st, arg)
		case 9:
			what = "retrieve"
			gc, gov := g.Retrieve()
			oc, oo := o.Retrieve()
			if gc != oc || gov != oo {
				t.Fatalf("op %d (retrieve): got (%d, %v), oracle (%d, %v)", i, gc, gov, oc, oo)
			}
		}
		if g.CPL() != o.CPL() {
			t.Fatalf("op %d (%s): CPL %d, oracle %d", i, what, g.CPL(), o.CPL())
		}
		if g.AvgOverlap() != o.AvgOverlap() {
			t.Fatalf("op %d (%s): AvgOverlap %v, oracle %v", i, what, g.AvgOverlap(), o.AvgOverlap())
		}
		for _, slot := range g.live {
			if !g.prb[slot].valid {
				t.Fatalf("op %d (%s): live list holds invalid slot %d", i, what, slot)
			}
		}
		gi, ge, gu := g.Diagnostics()
		oi, oe, ou := o.Diagnostics()
		if gi != oi || ge != oe || gu != ou {
			t.Fatalf("op %d (%s): Diagnostics (%d, %d, %d), oracle (%d, %d, %d)", i, what, gi, ge, gu, oi, oe, ou)
		}
	}
}

// TestGDPUnitMatchesOracle drives the unit and the O(PRB) oracle with the
// same seeded event streams at every checked PRB size, with and without
// overlap tracking.
func TestGDPUnitMatchesOracle(t *testing.T) {
	for _, n := range oraclePRBSizes {
		for _, overlap := range []bool{false, true} {
			for seed := int64(1); seed <= 20; seed++ {
				ops := make([]byte, 3000)
				rand.New(rand.NewSource(seed)).Read(ops)
				replayAgainstOracle(t, newGDP(t, Options{PRBEntries: n, TrackOverlap: overlap}), ops)
			}
		}
	}
}

// FuzzGDPUnitMatchesOracle is the fuzzing form of TestGDPUnitMatchesOracle:
// the first byte picks the PRB size and overlap tracking, the rest is the
// event stream.
func FuzzGDPUnitMatchesOracle(f *testing.F) {
	f.Add([]byte{0x03, 0x00, 0x10, 0x05, 0x02, 0x12, 0x06, 0x07, 0x09})
	f.Add([]byte{0x09, 0x00, 0x00, 0x10, 0x07, 0x02, 0x02, 0x16, 0x06, 0x08, 0x09})
	f.Add([]byte{0x00, 0x01, 0x11, 0x21, 0x31, 0x41, 0x05, 0x13, 0x26, 0x04, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := oraclePRBSizes[int(data[0]>>1)%len(oraclePRBSizes)]
		g := newGDP(t, Options{PRBEntries: n, TrackOverlap: data[0]&1 == 1})
		replayAgainstOracle(t, g, data[1:])
	})
}
