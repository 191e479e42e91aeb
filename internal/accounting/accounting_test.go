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
	if _, err := NewGDP("GDP", 0, 32, false); err == nil {
		t.Error("GDP with zero cores accepted")
	}
	if _, err := NewITCA(0); err == nil {
		t.Error("ITCA with zero cores accepted")
	}
	if _, err := NewPTCA(0); err == nil {
		t.Error("PTCA with zero cores accepted")
	}
	if _, err := NewASM(0, 1000); err == nil {
		t.Error("ASM with zero cores accepted")
	}
}

func TestNamesMatchPaperFigures(t *testing.T) {
	gdp, _ := NewGDP("GDP", 2, 32, false)
	gdpo, _ := NewGDP("GDP-O", 2, 32, true)
	itca, _ := NewITCA(2)
	ptca, _ := NewPTCA(2)
	asm, _ := NewASM(2, 1000)
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
	gdp, _ := NewGDP("GDP", 2, 32, false)
	itca, _ := NewITCA(2)
	ptca, _ := NewPTCA(2)
	asm, _ := NewASM(2, 1000)
	for _, a := range []Accountant{gdp, itca, ptca, asm} {
		if a.Probe(0) == nil && a.Name() != "ASM" && a.Name() != "ITCA" {
			t.Errorf("%s returned a nil probe", a.Name())
		}
		a.ObserveRequest(0, &mem.Request{Core: 0})
		_ = a.Estimate(0, interval(100000, 40000, 50000, 30000))
		a.EndInterval()
	}
}

func TestGDPAccountantEstimate(t *testing.T) {
	a, err := NewGDP("GDP", 2, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	// Drive core 0's unit through a serialized chain of 3 SMS loads.
	unit := a.units[0]
	cycle := uint64(0)
	for i := 0; i < 3; i++ {
		addr := uint64(0x1000 + i*64)
		unit.OnLoadIssued(addr, cycle, 0)
		unit.OnCommitStall(addr, true, cycle+1)
		unit.OnLoadCompleted(addr, true, cycle+300, 300, 100, 0)
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
	gdp, _ := NewGDP("GDP", 1, 32, false)
	gdpo, _ := NewGDP("GDP-O", 1, 32, true)
	drive := func(a *GDPAccountant) {
		u := a.units[0]
		u.OnLoadIssued(0x100, 0, 0)
		// 50 committing cycles of overlap while pending.
		u.OnCommitStall(0x100, true, 60)
		u.OnLoadCompleted(0x100, true, 300, 300, 0, 50)
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
	a, _ := NewGDP("GDP", 1, 32, false)
	a.SetLatencyFloor(0, 42)
	// Pathological observation: interference larger than latency.
	a.ObserveRequest(0, &mem.Request{Core: 0, IssueCycle: 0, CompleteCycle: 50, MemInterference: 500})
	est := a.Estimate(0, interval(1000, 400, 300, 100))
	if est.PrivateLatency != 42 {
		t.Errorf("latency should clamp at the floor: %v", est.PrivateLatency)
	}
}

// stallProbe returns core 0's probe of a, which must observe stall cycles.
func stallProbe(t *testing.T, a Accountant) cpu.StallProbe {
	t.Helper()
	p, ok := a.Probe(0).(cpu.StallProbe)
	if !ok {
		t.Fatalf("%s's probe does not observe stall cycles", a.Name())
	}
	return p
}

func TestITCAAccountsConditionCycles(t *testing.T) {
	a, _ := NewITCA(1)
	p := stallProbe(t, a)
	intfReq := &mem.Request{Core: 0, InterferenceMiss: true}
	// 400 stalled cycles with an interference miss at the head of the ROB.
	for i := 0; i < 400; i++ {
		p.OnCycles(&cpu.CycleState{HeadIsLoad: true, HeadReq: intfReq}, 1)
	}
	// 100 stalled cycles where all MSHRs hold interference misses.
	for i := 0; i < 100; i++ {
		p.OnCycles(&cpu.CycleState{PendingSMSLoads: 3, PendingInterferenceMisses: 3}, 1)
	}
	// 200 stalled cycles that match no condition.
	for i := 0; i < 200; i++ {
		p.OnCycles(&cpu.CycleState{PendingSMSLoads: 3, PendingInterferenceMisses: 1}, 1)
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
	p := stallProbe(t, a)
	// Plenty of interference-induced stalling, but the head request is not an
	// interference miss and not all MSHRs are interference misses: ITCA
	// accounts nothing and estimates private = shared.
	req := &mem.Request{Core: 0, MemInterference: 500}
	for i := 0; i < 600; i++ {
		p.OnCycles(&cpu.CycleState{HeadIsLoad: true, HeadReq: req, PendingSMSLoads: 4, PendingInterferenceMisses: 1}, 1)
	}
	iv := interval(1000, 500, 300, 700)
	est := a.Estimate(0, iv)
	if est.PrivateCPI != iv.CPI() {
		t.Errorf("ITCA with no matching conditions should return the shared CPI, got %v", est.PrivateCPI)
	}
}

func TestPTCAAccountsInterferenceWhileROBFull(t *testing.T) {
	a, _ := NewPTCA(1)
	p := stallProbe(t, a)
	req := &mem.Request{Core: 0, MemInterference: 150}
	// A 300-cycle stall on an SMS load, ROB full throughout: PTCA should
	// account min(300, interference=150) = 150 cycles.
	for i := 0; i < 300; i++ {
		p.OnCycles(&cpu.CycleState{HeadIsLoad: true, HeadReq: req, ROBFull: true}, 1)
	}
	p.OnCommitResume(req.Addr, true, 300)
	iv := interval(1000, 500, 300, 700)
	est := a.Estimate(0, iv)
	if est.PrivateCPI != 1.7 {
		t.Errorf("PTCA private CPI = %v, want (1000-150)/500 = 1.7", est.PrivateCPI)
	}
}

// TestPTCAClosesStallOnCommitResume checks that the resume, not a later
// Estimate, reads the stalling request's interference: the core reports no
// committing cycle, and a completed request may be recycled after it.
func TestPTCAClosesStallOnCommitResume(t *testing.T) {
	a, _ := NewPTCA(1)
	p := stallProbe(t, a)
	req := &mem.Request{Core: 0, MemInterference: 50}
	for i := 0; i < 100; i++ {
		p.OnCycles(&cpu.CycleState{HeadIsLoad: true, HeadReq: req, ROBFull: true}, 1)
	}
	p.OnCommitResume(req.Addr, true, 100)
	req.MemInterference = 500 // reused for another request
	iv := interval(1000, 500, 300, 700)
	if est := a.Estimate(0, iv); est.PrivateCPI != 1.9 {
		t.Errorf("PTCA private CPI = %v, want (1000-50)/500 = 1.9", est.PrivateCPI)
	}
}

func TestPTCADoubleCountsParallelLoads(t *testing.T) {
	// Two parallel loads delayed by the same interference event: PTCA
	// processes the two stalls independently and subtracts the interference
	// twice, the MLP blind spot described in Section II of the paper.
	a, _ := NewPTCA(1)
	p := stallProbe(t, a)
	reqA := &mem.Request{ID: 1, Core: 0, MemInterference: 100}
	reqB := &mem.Request{ID: 2, Core: 0, MemInterference: 100}
	for i := 0; i < 120; i++ {
		p.OnCycles(&cpu.CycleState{HeadIsLoad: true, HeadReq: reqA, ROBFull: true}, 1)
	}
	p.OnCommitResume(reqA.Addr, true, 120)
	for i := 0; i < 120; i++ {
		p.OnCycles(&cpu.CycleState{HeadIsLoad: true, HeadReq: reqB, ROBFull: true}, 1)
	}
	p.OnCommitResume(reqB.Addr, true, 241)
	iv := interval(1000, 500, 300, 700)
	est := a.Estimate(0, iv)
	if est.PrivateCPI != 1.6 {
		t.Errorf("PTCA should have double-counted to (1000-200)/500 = 1.6, got %v", est.PrivateCPI)
	}
}

func TestPTCAIgnoresROBNotFull(t *testing.T) {
	a, _ := NewPTCA(1)
	p := stallProbe(t, a)
	req := &mem.Request{Core: 0, MemInterference: 400}
	// The issue queue is the bottleneck (lbm-like): the ROB never fills, so
	// PTCA accounts nothing.
	for i := 0; i < 300; i++ {
		p.OnCycles(&cpu.CycleState{HeadIsLoad: true, HeadReq: req, ROBFull: false}, 1)
	}
	p.OnCommitResume(req.Addr, true, 300)
	iv := interval(1000, 500, 300, 700)
	if est := a.Estimate(0, iv); est.PrivateCPI != iv.CPI() {
		t.Errorf("PTCA should account nothing when the ROB is never full, got CPI %v", est.PrivateCPI)
	}
}

// TestASMEpochRotation checks ASM's schedule as its probe and the memory
// controller see it: with 1000-cycle epochs on 4 cores a completion is
// credited as high-priority exactly in the core's own epochs (cores 0, 1, 2,
// 3, then 0 again), and BindController hands the controller the same
// rotation, so in core 1's epoch its request is scheduled ahead of an older
// one from core 0 to the same bank.
func TestASMEpochRotation(t *testing.T) {
	a, _ := NewASM(4, 1000)
	for _, c := range []struct {
		cycle uint64
		owner int
	}{{0, 0}, {999, 0}, {1000, 1}, {2500, 2}, {3999, 3}, {4000, 0}, {5000, 1}} {
		for core, p := range a.probes {
			p.OnLoadCompleted(0, true, c.cycle, 0, 0, 0)
			if got, want := p.hpAccesses == 1, core == c.owner; got != want {
				t.Errorf("cycle %d: core %d credited as high-priority %v, want %v", c.cycle, core, got, want)
			}
			p.totalAccesses, p.hpAccesses = 0, 0
		}
	}

	cfg := config.PaperConfig(4).DRAM
	ctrl := dram.New(cfg, 4)
	a.BindController(ctrl)
	older := &mem.Request{ID: 1, Core: 0, Addr: 0}
	younger := &mem.Request{ID: 2, Core: 1, Addr: uint64(cfg.PageBytes * cfg.Channels * cfg.BanksPerChan)}
	ctrl.Enqueue(older, 1000)
	ctrl.Enqueue(younger, 1001)
	for now := uint64(1002); now < 3000; now++ {
		if done := ctrl.Tick(now); len(done) > 0 {
			if done[0] != younger {
				t.Errorf("core 1's epoch: core %d's request completed first, want core 1's", done[0].Core)
			}
			return
		}
	}
	t.Fatal("no request completed")
}

// TestASMOwnedCyclesFollowTheEpochSchedule checks ownedCycles, the closed
// form ASM divides its high-priority accesses by, against the schedule
// counted cycle by cycle: up to any cycle, a core owns exactly the cycles of
// which it is the epoch owner.
func TestASMOwnedCyclesFollowTheEpochSchedule(t *testing.T) {
	for _, cores := range []int{1, 2, 3, 4} {
		for _, epoch := range []uint64{1, 7, 100} {
			a, _ := NewASM(cores, epoch)
			owned := make([]uint64, cores)
			for now := uint64(0); now < 2000; now++ {
				owned[now/epoch%uint64(cores)]++
				for c := range cores {
					if got := a.ownedCycles(c, now+1); got != owned[c] {
						t.Fatalf("%d cores, epoch %d: core %d owns %d of the cycles below %d, the schedule gave it %d",
							cores, epoch, c, got, now+1, owned[c])
					}
				}
			}
		}
	}
}

// runASMInterval drives a run of a (2 cores, 100-cycle epochs) from cycle 0
// to cycle end. Core 0 completes an access every 5 cycles of its
// high-priority epochs (the even ones) and every 10 cycles of the others.
func runASMInterval(a *ASM, end uint64) {
	for now := range end {
		if (now/100%2 == 0 && now%5 == 0) || now%10 == 0 {
			a.probes[0].OnLoadCompleted(0, true, now, 0, 0, 0)
		}
	}
}

func TestASMSlowdownEstimate(t *testing.T) {
	a, _ := NewASM(2, 100)
	p := a.probes[0]
	// Over a 1000-cycle interval core 0 completes 100 of 150 accesses in its
	// 500 high-priority cycles, so the slowdown is (100/500) / (150/1000) = 4/3.
	runASMInterval(a, 1000)
	iv := interval(1000, 500, 300, 700)
	est := a.Estimate(0, iv)
	if want := iv.CPI() * 3 / 4; math.Abs(est.PrivateCPI-want) > 1e-12 {
		t.Errorf("ASM private CPI = %v, want shared CPI / (4/3) = %v", est.PrivateCPI, want)
	}
	a.EndInterval()
	if p.totalAccesses != 0 || p.hpAccesses != 0 {
		t.Error("EndInterval should reset ASM probes")
	}
	// The next interval starts at cycle 1000, in core 0's epoch 10: of
	// [1000, 1150) core 0 owns [1000, 1100).
	if got := a.ownedCycles(0, 1150) - a.ownedCycles(0, a.intervalStart); a.intervalStart != 1000 || got != 100 {
		t.Errorf("second interval starts at %d with %d high-priority cycles of core 0 in its first 150, want 1000 and 100",
			a.intervalStart, got)
	}
}

// TestASMRestartsOnBindController reuses one ASM for a second run after the
// first has left an interval open, accesses counted and a later interval
// start: BindController, which the driver calls at the start of every run,
// must reset them, so the second run estimates what a fresh instance does.
func TestASMRestartsOnBindController(t *testing.T) {
	iv := interval(1000, 500, 300, 700)
	fresh, _ := NewASM(2, 100)
	runASMInterval(fresh, 1000)
	want := fresh.Estimate(0, iv)

	a, _ := NewASM(2, 100)
	runASMInterval(a, 1000)
	a.Estimate(0, iv)
	a.EndInterval()
	a.probes[0].OnLoadCompleted(0, true, 1149, 0, 0, 0)
	a.Estimate(0, interval(150, 100, 50, 100))
	a.BindController(dram.New(config.PaperConfig(2).DRAM, 2))
	runASMInterval(a, 1000)
	if got := a.Estimate(0, iv); got != want {
		t.Errorf("second run estimates %+v, a fresh ASM %+v", got, want)
	}
}

func TestASMWithoutActivityFallsBackToSharedCPI(t *testing.T) {
	a, _ := NewASM(2, 100)
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
