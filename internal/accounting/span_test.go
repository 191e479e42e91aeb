package accounting

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// spanAccountants builds one accountant of every technique that attaches a
// probe — GDP, GDP-O, ITCA, PTCA and ASM — for a two-core CMP. Only core 0's
// probes are driven.
func spanAccountants(t testing.TB) []Accountant {
	t.Helper()
	gdp, err1 := NewGDP(2, 4, false)
	gdpo, err2 := NewGDP(2, 4, true)
	itca, err3 := NewITCA(2)
	ptca, err4 := NewPTCA(2)
	asm, err5 := NewASM(2, 40, nil)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		t.Fatal(err)
	}
	gdp.SetLatencyFloor(0, 150)
	gdpo.SetLatencyFloor(0, 150)
	return []Accountant{gdp, gdpo, itca, ptca, asm}
}

// replaySpans decodes ops into a stream of probe events, stall spans,
// committing runs, ASM epoch ticks and interval ends. It feeds every stall
// span to the stall probes of one accountant set as a single OnCycles(s, n)
// call and to those of another as n calls OnCycles(s, 1), and every other
// event to both alike; a committing run only advances the committing-cycle
// count the load events carry, as the core reports no committing cycle. It
// fails t when an Estimate differs between the sets at an interval end or at
// the end of the stream. Each op byte selects an event and its parameters;
// the following byte (when present) sizes it.
func replaySpans(t *testing.T, ops []byte) {
	t.Helper()
	spans, units := spanAccountants(t), spanAccountants(t)
	both := func(f func(cpu.Probe)) {
		for _, a := range spans {
			f(a.Probe(0))
		}
		for _, a := range units {
			f(a.Probe(0))
		}
	}
	stall := func(accts []Accountant, f func(cpu.StallProbe)) {
		for _, a := range accts {
			if p, ok := a.Probe(0).(cpu.StallProbe); ok {
				f(p)
			}
		}
	}
	compare := func(i int) {
		iv := interval(1000, 400, 300, 200)
		for k := range spans {
			s, u := spans[k].Estimate(0, iv), units[k].Estimate(0, iv)
			if s != u {
				t.Fatalf("op %d: %s estimate from spans %+v, from unit cycles %+v", i, spans[k].Name(), s, u)
			}
			spans[k].EndInterval()
			units[k].EndInterval()
		}
	}
	reqs := [3]*mem.Request{
		{Core: 0, Addr: 0x1000, RingInterference: 7},
		{Core: 0, Addr: 0x1040, MemInterference: 40, InterferenceMiss: true},
		{Core: 0, Addr: 0x1080, LLCInterference: 90},
	}
	var now, commits uint64
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		arg := uint64(0)
		if i+1 < len(ops) {
			arg = uint64(ops[i+1])
		}
		addr := 0x1000 + uint64(op>>4)%4*64
		switch op % 8 {
		case 0, 1, 2:
			n := arg%32 + 1
			now += n
			if op&0x08 != 0 {
				commits += n
				break
			}
			pending := int(arg>>5) % 4
			s := cpu.CycleState{
				ROBFull:                   op&0x40 != 0,
				HeadIsLoad:                op&0x10 != 0,
				PendingSMSLoads:           pending,
				PendingInterferenceMisses: pending >> (op >> 7),
			}
			if j := int(op>>5) % 4; s.HeadIsLoad && j < len(reqs) {
				s.HeadReq = reqs[j]
			}
			stall(spans, func(p cpu.StallProbe) { p.OnCycles(&s, n) })
			stall(units, func(p cpu.StallProbe) {
				for range n {
					unit := s
					p.OnCycles(&unit, 1)
				}
			})
		case 3:
			both(func(p cpu.Probe) { p.OnLoadIssued(addr, now, commits) })
		case 4:
			both(func(p cpu.Probe) { p.OnLoadCompleted(addr, op&0x80 == 0, now, 200, arg, commits) })
		case 5:
			both(func(p cpu.Probe) { p.OnCommitStall(addr, op&0x80 == 0, now) })
		case 6:
			both(func(p cpu.Probe) { p.OnCommitResume(addr, op&0x80 == 0, now) })
		case 7:
			switch (op >> 3) % 4 {
			case 0: // ASM's epoch schedule
				for k := range spans {
					spans[k].Tick(now)
					units[k].Tick(now)
				}
			case 1: // an in-flight request's interference moves between spans
				r := reqs[int(op>>5)%len(reqs)]
				r.InterferenceMiss = !r.InterferenceMiss
				r.MemInterference += arg
			default:
				compare(i)
			}
		}
	}
	compare(len(ops))
}

// TestOnCyclesSpanEquivalence checks the OnCycles contract for every probe
// the accountants attach: a span of n cycles sharing one snapshot is exactly
// n one-cycle calls, on seeded event streams.
func TestOnCyclesSpanEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		ops := make([]byte, 2000)
		rand.New(rand.NewSource(seed)).Read(ops)
		replaySpans(t, ops)
	}
}

// FuzzOnCyclesSpanEquivalence is the fuzzing form of
// TestOnCyclesSpanEquivalence: the input is the event stream.
func FuzzOnCyclesSpanEquivalence(f *testing.F) {
	f.Add([]byte{0x03, 0x10, 0x18, 0x1f, 0x05, 0x00, 0x12, 0x20, 0x04, 0x06, 0x17})
	f.Add([]byte{0x07, 0x00, 0x5a, 0x3f, 0x0f, 0x05, 0x71, 0x9f, 0x17, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) { replaySpans(t, data) })
}
