package accounting

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
)

// interval builds a representative interval of shared-mode statistics.
func interval(cycles, inst, commit, stallSMS uint64) cpu.Stats {
	other := cycles - commit - stallSMS
	return cpu.Stats{
		Cycles:        cycles,
		CommitCycles:  commit,
		StallInd:      other / 2,
		StallPMS:      other / 4,
		StallSMS:      stallSMS,
		StallOther:    other - other/2 - other/4,
		Instructions:  inst,
		SMSLoads:      stallSMS / 200,
		SMSLatencySum: stallSMS,
	}
}

func TestAccountantConstructorsRejectZeroCores(t *testing.T) {
	if _, err := NewGDP(0, 32, false); err == nil {
		t.Error("GDP with zero cores accepted")
	}
	if _, err := NewITCA(0); err == nil {
		t.Error("ITCA with zero cores accepted")
	}
	if _, err := NewPTCA(0); err == nil {
		t.Error("PTCA with zero cores accepted")
	}
	if _, err := NewASM(0, 1000, nil); err == nil {
		t.Error("ASM with zero cores accepted")
	}
}

func TestNamesMatchPaperFigures(t *testing.T) {
	gdp, _ := NewGDP(2, 32, false)
	gdpo, _ := NewGDP(2, 32, true)
	itca, _ := NewITCA(2)
	ptca, _ := NewPTCA(2)
	asm, _ := NewASM(2, 1000, nil)
	for got, want := range map[string]string{
		gdp.Name():  "GDP",
		gdpo.Name(): "GDP-O",
		itca.Name(): "ITCA",
		ptca.Name(): "PTCA",
		asm.Name():  "ASM",
	} {
		if got != want {
			t.Errorf("accountant name %q, want %q", got, want)
		}
	}
}

// TestNewBuildsEveryName: New builds each technique of Names under its own
// name and rejects any other name.
func TestNewBuildsEveryName(t *testing.T) {
	for _, name := range Names {
		a, err := New(name, 2, 32, 1000)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("New(%q) built %q", name, a.Name())
		}
	}
	if _, err := New("gdp", 2, 32, 1000); err == nil {
		t.Error("New accepted the unknown technique \"gdp\"")
	}
}

func TestAllAccountantsImplementInterface(t *testing.T) {
	gdp, _ := NewGDP(2, 32, false)
	itca, _ := NewITCA(2)
	ptca, _ := NewPTCA(2)
	asm, _ := NewASM(2, 1000, nil)
	for _, a := range []Accountant{gdp, itca, ptca, asm} {
		if a.Probe(0) == nil && a.Name() != "ASM" && a.Name() != "ITCA" {
			t.Errorf("%s returned a nil probe", a.Name())
		}
		a.Tick(0)
		a.ObserveRequest(0, &mem.Request{Core: 0})
		_ = a.Estimate(0, interval(100000, 40000, 50000, 30000))
		a.EndInterval()
	}
}

func TestGDPAccountantEstimate(t *testing.T) {
	a, err := NewGDP(2, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	// Drive core 0's unit through a serialized chain of 3 SMS loads.
	unit := a.units[0]
	cycle := uint64(0)
	for i := 0; i < 3; i++ {
		addr := uint64(0x1000 + i*64)
		unit.OnLoadIssued(addr, cycle)
		unit.OnCommitStall(addr, true, cycle+1)
		unit.OnLoadCompleted(addr, true, cycle+300, 300, 100)
		unit.OnCommitResume(addr, true, cycle+301)
		cycle += 310
	}
	// DIEF observes the same three requests: shared latency 300, interference 100.
	for i := 0; i < 3; i++ {
		a.ObserveRequest(0, &mem.Request{
			Core: 0, IssueCycle: 0, CompleteCycle: 300, MemInterference: 100,
		})
	}
	iv := interval(1000, 400, 300, 650)
	est := a.Estimate(0, iv)
	if est.CPL != 3 {
		t.Errorf("CPL = %d, want 3", est.CPL)
	}
	if est.PrivateLatency != 200 {
		t.Errorf("private latency = %v, want 200", est.PrivateLatency)
	}
	if est.SMSStallCycles != 600 {
		t.Errorf("SMS stall estimate = %v, want CPL*lambda = 600", est.SMSStallCycles)
	}
	if est.PrivateCPI <= 0 || est.PrivateIPC <= 0 {
		t.Error("estimates must be positive")
	}
	// The interval had 650 shared-mode SMS stall cycles; with a third of the
	// latency being interference the private estimate must be smaller.
	if est.SMSStallCycles >= 650 {
		t.Error("GDP should estimate fewer private-mode stall cycles than the shared-mode measurement")
	}
	a.EndInterval()
	if a.latency.SharedLatency(0) != 0 {
		t.Error("EndInterval should reset DIEF")
	}
}

func TestFigure1EstimateMatchesPaperArithmetic(t *testing.T) {
	// The worked example of Section IV-A: 190 instructions, 190 commit cycles,
	// CPL 2, perfect private latency estimate of 140 cycles and average
	// overlap 38. GDP estimates 2.5 CPI, GDP-O estimates 2.1 CPI.
	interval := cpu.Stats{
		CommitCycles:  190,
		Instructions:  190,
		StallSMS:      305, // shared-mode stalls (not used by the estimate)
		SMSLoads:      5,
		SMSLatencySum: 5 * 180,
	}
	gdp := gdpEstimate(interval, 2, 38, 140, false)
	if math.Abs(gdp.PrivateCPI-2.473) > 0.02 {
		t.Errorf("GDP CPI = %v, want about 2.47 ([190+280]/190)", gdp.PrivateCPI)
	}
	if gdp.SMSStallCycles != 280 {
		t.Errorf("GDP stall estimate = %v, want 280", gdp.SMSStallCycles)
	}
	gdpo := gdpEstimate(interval, 2, 38, 140, true)
	if gdpo.SMSStallCycles != 204 {
		t.Errorf("GDP-O stall estimate = %v, want 204", gdpo.SMSStallCycles)
	}
	if math.Abs(gdpo.PrivateCPI-2.073) > 0.02 {
		t.Errorf("GDP-O CPI = %v, want about 2.07 ([190+204]/190)", gdpo.PrivateCPI)
	}
}

func TestGDPEstimateDegenerateInputs(t *testing.T) {
	est := gdpEstimate(cpu.Stats{}, 0, 0, 0, false)
	if est.PrivateCPI != 0 || est.PrivateIPC != 0 {
		t.Error("empty interval should produce zero estimates")
	}
	// Negative effective latency clamps at zero.
	est = gdpEstimate(cpu.Stats{Instructions: 10, CommitCycles: 10}, 5, 100, 50, true)
	if est.SMSStallCycles != 0 {
		t.Errorf("over-subtracted overlap should clamp the stall estimate at 0, got %v", est.SMSStallCycles)
	}
}

func TestGDPOSubtractsOverlap(t *testing.T) {
	gdp, _ := NewGDP(1, 32, false)
	gdpo, _ := NewGDP(1, 32, true)
	drive := func(a *GDPAccountant) {
		u := a.units[0]
		u.OnLoadIssued(0x100, 0)
		// 50 committing cycles of overlap while pending.
		for i := 0; i < 50; i++ {
			u.OnCycles(&cpu.CycleState{Committing: true}, 1)
		}
		u.OnCommitStall(0x100, true, 60)
		u.OnLoadCompleted(0x100, true, 300, 300, 0)
		u.OnCommitResume(0x100, true, 301)
		a.ObserveRequest(0, &mem.Request{Core: 0, IssueCycle: 0, CompleteCycle: 300})
	}
	drive(gdp)
	drive(gdpo)
	iv := interval(1000, 400, 300, 650)
	eGDP := gdp.Estimate(0, iv)
	eGDPO := gdpo.Estimate(0, iv)
	if eGDPO.AvgOverlap == 0 {
		t.Fatal("GDP-O should have measured overlap")
	}
	if eGDPO.SMSStallCycles >= eGDP.SMSStallCycles {
		t.Errorf("GDP-O estimate (%v) should be below GDP estimate (%v)", eGDPO.SMSStallCycles, eGDP.SMSStallCycles)
	}
}

func TestGDPLatencyFloor(t *testing.T) {
	a, _ := NewGDP(1, 32, false)
	a.SetLatencyFloor(0, 42)
	// Pathological observation: interference larger than latency.
	a.ObserveRequest(0, &mem.Request{Core: 0, IssueCycle: 0, CompleteCycle: 50, MemInterference: 500})
	est := a.Estimate(0, interval(1000, 400, 300, 100))
	if est.PrivateLatency != 42 {
		t.Errorf("latency should clamp at the floor: %v", est.PrivateLatency)
	}
}

func TestITCAAccountsConditionCycles(t *testing.T) {
	a, _ := NewITCA(1)
	p := a.Probe(0)
	intfReq := &mem.Request{Core: 0, InterferenceMiss: true}
	// 400 stalled cycles with an interference miss at the head of the ROB.
	for i := 0; i < 400; i++ {
		p.OnCycles(&cpu.CycleState{Committing: false, HeadIsLoad: true, HeadReq: intfReq}, 1)
	}
	// 100 stalled cycles where all MSHRs hold interference misses.
	for i := 0; i < 100; i++ {
		p.OnCycles(&cpu.CycleState{Committing: false, PendingSMSLoads: 3, PendingInterferenceMisses: 3}, 1)
	}
	// 200 stalled cycles that match no condition.
	for i := 0; i < 200; i++ {
		p.OnCycles(&cpu.CycleState{Committing: false, PendingSMSLoads: 3, PendingInterferenceMisses: 1}, 1)
	}
	iv := interval(1000, 500, 300, 700)
	est := a.Estimate(0, iv)
	// 500 cycles accounted as interference -> 500 private cycles -> CPI 1.0.
	if est.PrivateCPI != 1.0 {
		t.Errorf("ITCA private CPI = %v, want 1.0", est.PrivateCPI)
	}
	a.EndInterval()
	if got := a.Estimate(0, iv); got.PrivateCPI != 2.0 {
		t.Errorf("after reset, private CPI should equal shared CPI (2.0), got %v", got.PrivateCPI)
	}
}

func TestITCAConservativeWhenConditionsMiss(t *testing.T) {
	a, _ := NewITCA(1)
	p := a.Probe(0)
	// Plenty of interference-induced stalling, but the head request is not an
	// interference miss and not all MSHRs are interference misses: ITCA
	// accounts nothing and estimates private = shared.
	req := &mem.Request{Core: 0, MemInterference: 500}
	for i := 0; i < 600; i++ {
		p.OnCycles(&cpu.CycleState{Committing: false, HeadIsLoad: true, HeadReq: req, PendingSMSLoads: 4, PendingInterferenceMisses: 1}, 1)
	}
	iv := interval(1000, 500, 300, 700)
	est := a.Estimate(0, iv)
	if est.PrivateCPI != iv.CPI() {
		t.Errorf("ITCA with no matching conditions should return the shared CPI, got %v", est.PrivateCPI)
	}
}

func TestPTCAAccountsInterferenceWhileROBFull(t *testing.T) {
	a, _ := NewPTCA(1)
	p := a.Probe(0)
	req := &mem.Request{Core: 0, MemInterference: 150}
	// A 300-cycle stall on an SMS load, ROB full throughout: PTCA should
	// account min(300, interference=150) = 150 cycles.
	for i := 0; i < 300; i++ {
		p.OnCycles(&cpu.CycleState{Committing: false, HeadIsLoad: true, HeadReq: req, ROBFull: true}, 1)
	}
	p.OnCycles(&cpu.CycleState{Committing: true}, 1)
	iv := interval(1000, 500, 300, 700)
	est := a.Estimate(0, iv)
	if est.PrivateCPI != 1.7 {
		t.Errorf("PTCA private CPI = %v, want (1000-150)/500 = 1.7", est.PrivateCPI)
	}
}

func TestPTCADoubleCountsParallelLoads(t *testing.T) {
	// Two parallel loads delayed by the same interference event: PTCA
	// processes the two stalls independently and subtracts the interference
	// twice, the MLP blind spot described in Section II of the paper.
	a, _ := NewPTCA(1)
	p := a.Probe(0)
	reqA := &mem.Request{ID: 1, Core: 0, MemInterference: 100}
	reqB := &mem.Request{ID: 2, Core: 0, MemInterference: 100}
	for i := 0; i < 120; i++ {
		p.OnCycles(&cpu.CycleState{Committing: false, HeadIsLoad: true, HeadReq: reqA, ROBFull: true}, 1)
	}
	p.OnCycles(&cpu.CycleState{Committing: true}, 1)
	for i := 0; i < 120; i++ {
		p.OnCycles(&cpu.CycleState{Committing: false, HeadIsLoad: true, HeadReq: reqB, ROBFull: true}, 1)
	}
	p.OnCycles(&cpu.CycleState{Committing: true}, 1)
	iv := interval(1000, 500, 300, 700)
	est := a.Estimate(0, iv)
	if est.PrivateCPI != 1.6 {
		t.Errorf("PTCA should have double-counted to (1000-200)/500 = 1.6, got %v", est.PrivateCPI)
	}
}

func TestPTCAIgnoresROBNotFull(t *testing.T) {
	a, _ := NewPTCA(1)
	p := a.Probe(0)
	req := &mem.Request{Core: 0, MemInterference: 400}
	// The issue queue is the bottleneck (lbm-like): the ROB never fills, so
	// PTCA accounts nothing.
	for i := 0; i < 300; i++ {
		p.OnCycles(&cpu.CycleState{Committing: false, HeadIsLoad: true, HeadReq: req, ROBFull: false}, 1)
	}
	p.OnCycles(&cpu.CycleState{Committing: true}, 1)
	iv := interval(1000, 500, 300, 700)
	if est := a.Estimate(0, iv); est.PrivateCPI != iv.CPI() {
		t.Errorf("PTCA should account nothing when the ROB is never full, got CPI %v", est.PrivateCPI)
	}
}

func TestASMEpochRotation(t *testing.T) {
	ctrl := dram.New(config.PaperConfig(4).DRAM)
	a, _ := NewASM(4, 1000, ctrl)
	a.Tick(0)
	if a.currentOwner != 0 || ctrl.PriorityCore() != 0 {
		t.Fatalf("epoch 0 should belong to core 0 (owner=%d prio=%d)", a.currentOwner, ctrl.PriorityCore())
	}
	for now := uint64(1); now <= 1000; now++ {
		a.Tick(now)
	}
	if a.currentOwner != 1 || ctrl.PriorityCore() != 1 {
		t.Errorf("after one epoch the owner should be core 1, got %d", a.currentOwner)
	}
	for now := uint64(1001); now <= 4000; now++ {
		a.Tick(now)
	}
	if a.currentOwner != 0 {
		t.Errorf("epochs should wrap around to core 0, got %d", a.currentOwner)
	}
}

func TestASMSlowdownEstimate(t *testing.T) {
	a, _ := NewASM(2, 100, nil)
	p := a.probes[0]
	// Simulate: during its high-priority epoch core 0 completes accesses twice
	// as fast as over the whole interval -> slowdown 2 -> private CPI = shared/2.
	a.currentOwner = 0
	for i := 0; i < 100; i++ {
		p.OnCycles(&cpu.CycleState{}, 1)
		if i%5 == 0 {
			p.OnLoadCompleted(0, true, 0, 0, 0)
		}
	}
	a.currentOwner = 1
	for i := 0; i < 900; i++ {
		p.OnCycles(&cpu.CycleState{}, 1)
		if i%10 == 0 {
			p.OnLoadCompleted(0, true, 0, 0, 0)
		}
	}
	iv := interval(1000, 500, 300, 700)
	est := a.Estimate(0, iv)
	if est.PrivateCPI >= iv.CPI() {
		t.Errorf("ASM should estimate the private CPI below the shared CPI, got %v vs %v", est.PrivateCPI, iv.CPI())
	}
	if est.PrivateCPI <= 0 {
		t.Error("ASM estimate must be positive")
	}
	a.EndInterval()
	if p.totalCycles != 0 || p.hpAccesses != 0 {
		t.Error("EndInterval should reset ASM probes")
	}
}

func TestASMWithoutActivityFallsBackToSharedCPI(t *testing.T) {
	a, _ := NewASM(2, 100, nil)
	iv := interval(1000, 500, 300, 700)
	est := a.Estimate(0, iv)
	if est.PrivateCPI != iv.CPI() {
		t.Errorf("with no observations ASM should return the shared CPI, got %v", est.PrivateCPI)
	}
}

func TestStallEstimateHelpers(t *testing.T) {
	iv := interval(1000, 500, 300, 700)
	if got := stallEstimateFromCycles(float64(iv.Cycles), iv); got != float64(iv.StallSMS) {
		t.Errorf("identity case: %v, want %v", got, iv.StallSMS)
	}
	if got := stallEstimateFromCycles(10, iv); got != 0 {
		t.Errorf("stall estimate must clamp at zero, got %v", got)
	}
	if cpi, ipc := cpiFromCycles(0, iv); cpi != 0 || ipc != 0 {
		t.Error("zero cycles should produce zero CPI/IPC")
	}
	if cpi, _ := cpiFromCycles(1000, cpu.Stats{}); cpi != 0 {
		t.Error("zero instructions should produce zero CPI")
	}
}
