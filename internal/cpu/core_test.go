package cpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fakeMem is a MemorySystem used to test the core in isolation from the full
// shared memory system. A read completes `latency` cycles after issue, plus —
// when jitter is non-zero — up to jitter-1 further cycles drawn from (seed,
// address, issue cycle), so two instances with one seed serve one schedule.
//
// Requests come from a ring, so steady-state ticking allocates nothing. A
// slot is reused 512 reads later, by which time every ROB entry that pointed
// at it has committed: a request is referenced only by loads that were in the
// ROB together with its primary, and each read belongs to a new instruction.
type fakeMem struct {
	latency      uint64
	jitter, seed uint64
	nextID       uint64
	inflight     []*mem.Request // CompleteCycle holds the due cycle
	done         []*mem.Request // scratch returned by completions
	submitted    int
	ring         [512]mem.Request
	write        mem.Request // writes are fire-and-forget: one scratch object
}

func (f *fakeMem) Submit(core int, addr uint64, isWrite bool, now uint64) *mem.Request {
	f.nextID++
	f.submitted++
	req := &f.write
	if !isWrite {
		req = &f.ring[f.nextID%uint64(len(f.ring))]
	}
	*req = mem.Request{ID: f.nextID, Core: core, Addr: addr, IsWrite: isWrite, IssueCycle: now}
	req.LLCArrival = now + 10
	req.CompleteCycle = now + f.latency
	if f.jitter > 0 {
		req.CompleteCycle += splitmix(f.seed^addr^now<<32) % f.jitter
	}
	if !isWrite {
		f.inflight = append(f.inflight, req)
	}
	return req
}

// splitmix is the SplitMix64 finalizer: a stateless hash for fakeMem's jitter.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// completions returns the requests due by cycle now, in submission order. The
// slice is reused by the next call.
func (f *fakeMem) completions(now uint64) []*mem.Request {
	f.done = f.done[:0]
	kept := f.inflight[:0]
	for _, r := range f.inflight {
		if r.CompleteCycle <= now {
			f.done = append(f.done, r)
		} else {
			kept = append(kept, r)
		}
	}
	f.inflight = kept
	return f.done
}

func memParams() trace.Params {
	return trace.Params{
		LoadFrac:        0.3,
		StoreFrac:       0.05,
		FPFrac:          0.1,
		BranchFrac:      0.05,
		MispredictRate:  0.01,
		LoadDepFrac:     0.2,
		DepDistanceMean: 4,
		WorkingSets: []trace.WorkingSet{
			{Bytes: 2 << 10, AccessProb: 0.3},
			{Bytes: 1 << 20, AccessProb: 0.7},
		},
	}
}

func computeParams() trace.Params {
	p := memParams()
	p.LoadFrac = 0.05
	p.StoreFrac = 0.02
	p.WorkingSets = []trace.WorkingSet{{Bytes: 2 << 10, AccessProb: 1.0}}
	return p
}

// conflictParams is a load-heavy stream that walks six lines mapping to one
// set of the scaled L1 (2 ways) and L2 (4 ways): every load misses both, and
// a line is re-requested while its previous miss is still outstanding, so
// loads merge onto MSHRs all the time (the registry scenarios almost never do).
func conflictParams() trace.Params {
	p := memParams()
	p.LoadFrac = 0.4
	p.WorkingSets = []trace.WorkingSet{{Bytes: 6 * 2048, AccessProb: 1.0, Sequential: true, Stride: 2048}}
	return p
}

// scenarioParams returns the trace profile of one core slot of a registry
// scenario.
func scenarioParams(tb testing.TB, scenario string, slot int) trace.Params {
	tb.Helper()
	sc, err := workload.ScenarioByName(scenario)
	if err != nil {
		tb.Fatal(err)
	}
	wl, err := sc.Workload(slot + 1)
	if err != nil {
		tb.Fatal(err)
	}
	return wl.Benchmarks[slot].Params
}

func newTestCore(tb testing.TB, params trace.Params, m MemorySystem) *Core {
	return newSeededCore(tb, params, 42, m)
}

func newSeededCore(tb testing.TB, params trace.Params, seed int64, m MemorySystem) *Core {
	tb.Helper()
	gen, err := trace.NewGenerator(params, seed)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := config.ScaledConfig(2)
	core, err := New(0, cfg, gen, m)
	if err != nil {
		tb.Fatal(err)
	}
	return core
}

// run drives a core and its fakeMem through cycles [from, to), delivering the
// completions due at each cycle before ticking it.
func run(core *Core, fm *fakeMem, from, to uint64) {
	for cyc := from; cyc < to; cyc++ {
		for _, req := range fm.completions(cyc) {
			core.CompleteRequest(req, cyc)
		}
		core.Tick(cyc)
	}
}

func TestNewValidation(t *testing.T) {
	cfg := config.ScaledConfig(2)
	gen, _ := trace.NewGenerator(memParams(), 1)
	if _, err := New(0, cfg, nil, &fakeMem{}); err == nil {
		t.Error("nil generator accepted")
	}
	if _, err := New(0, cfg, gen, nil); err == nil {
		t.Error("nil memory system accepted")
	}
}

func TestCoreMakesForwardProgress(t *testing.T) {
	fm := &fakeMem{latency: 200}
	core := newTestCore(t, memParams(), fm)
	run(core, fm, 0, 20000)
	st := core.Stats()
	if st.Instructions == 0 {
		t.Fatal("core committed no instructions")
	}
	if st.Cycles != 20000 {
		t.Errorf("cycles = %d, want 20000", st.Cycles)
	}
	if st.CommitCycles == 0 {
		t.Error("no commit cycles recorded")
	}
	if stall := st.StallInd + st.StallPMS + st.StallSMS + st.StallOther; st.CommitCycles+stall != st.Cycles {
		t.Errorf("cycle taxonomy does not add up: commit %d + stall %d != %d",
			st.CommitCycles, stall, st.Cycles)
	}
}

func TestCycleTaxonomyPartition(t *testing.T) {
	// Equation 1 invariant: every cycle is a commit cycle or exactly one stall kind.
	fm := &fakeMem{latency: 150}
	core := newTestCore(t, memParams(), fm)
	run(core, fm, 0, 50000)
	st := core.Stats()
	sum := st.CommitCycles + st.StallInd + st.StallPMS + st.StallSMS + st.StallOther
	if sum != st.Cycles {
		t.Errorf("taxonomy sum %d != cycles %d", sum, st.Cycles)
	}
}

func TestComputeBoundWorkloadHasFewSMSLoads(t *testing.T) {
	fm := &fakeMem{latency: 200}
	core := newTestCore(t, computeParams(), fm)
	run(core, fm, 0, 20000)
	st := core.Stats()
	if st.Instructions == 0 {
		t.Fatal("no forward progress")
	}
	if st.SMSLoads > st.Loads/10 {
		t.Errorf("compute-bound workload produced %d SMS loads out of %d loads", st.SMSLoads, st.Loads)
	}
	if st.IPC() < 0.5 {
		t.Errorf("compute-bound IPC = %v, expected closer to the 4-wide peak", st.IPC())
	}
}

func TestMemoryBoundWorkloadStallsOnSMS(t *testing.T) {
	fm := &fakeMem{latency: 300}
	core := newTestCore(t, memParams(), fm)
	run(core, fm, 0, 50000)
	st := core.Stats()
	if st.SMSLoads == 0 {
		t.Fatal("memory-bound workload produced no SMS loads")
	}
	if st.StallSMS == 0 {
		t.Error("expected SMS stalls with 300-cycle memory latency")
	}
	if st.SMSLatencySum/st.SMSLoads < 200 {
		t.Errorf("average SMS latency %d below the configured 300-cycle service time",
			st.SMSLatencySum/st.SMSLoads)
	}
}

func TestHigherMemoryLatencyLowersIPC(t *testing.T) {
	fast := &fakeMem{latency: 100}
	slow := &fakeMem{latency: 600}
	coreFast := newTestCore(t, memParams(), fast)
	coreSlow := newTestCore(t, memParams(), slow)
	run(coreFast, fast, 0, 40000)
	run(coreSlow, slow, 0, 40000)
	if coreSlow.Stats().IPC() >= coreFast.Stats().IPC() {
		t.Errorf("IPC should drop with memory latency: fast=%v slow=%v",
			coreFast.Stats().IPC(), coreSlow.Stats().IPC())
	}
}

func TestMSHRMerging(t *testing.T) {
	fm := &fakeMem{latency: 400}
	// Pointer-chase-free, single hot line far beyond L2: loads to the same
	// line must merge rather than issue duplicate requests.
	p := memParams()
	p.LoadFrac = 0.5
	p.LoadDepFrac = 0
	p.WorkingSets = []trace.WorkingSet{{Bytes: 64, AccessProb: 1.0}}
	core := newTestCore(t, p, fm)
	run(core, fm, 0, 3000)
	if fm.submitted > 4 {
		t.Errorf("single-line workload submitted %d SMS requests, expected the misses to merge", fm.submitted)
	}
	if core.Stats().Instructions == 0 {
		t.Error("no forward progress")
	}
}

func TestStatsDelta(t *testing.T) {
	fm := &fakeMem{latency: 150}
	core := newTestCore(t, memParams(), fm)
	run(core, fm, 0, 10000)
	snap := core.Stats()
	run(core, fm, 10000, 20000)
	delta := core.Stats().Delta(snap)
	if delta.Cycles != 10000 {
		t.Errorf("delta cycles = %d, want 10000", delta.Cycles)
	}
	if delta.Instructions == 0 || delta.Instructions >= core.Stats().Instructions {
		t.Errorf("delta instructions = %d out of range", delta.Instructions)
	}
}

// recordingProbe captures probe events for inspection.
type recordingProbe struct {
	issued       int
	completed    int
	completedSMS int
	stalls       int
	resumes      int
	cycles       int
	commits      int
}

func (r *recordingProbe) OnLoadIssued(uint64, uint64) { r.issued++ }
func (r *recordingProbe) OnLoadCompleted(_ uint64, sms bool, _ uint64, _, _ uint64) {
	r.completed++
	if sms {
		r.completedSMS++
	}
}
func (r *recordingProbe) OnCommitStall(uint64, bool, uint64)  { r.stalls++ }
func (r *recordingProbe) OnCommitResume(uint64, bool, uint64) { r.resumes++ }
func (r *recordingProbe) OnCycles(s *CycleState, n uint64) {
	r.cycles += int(n)
	if s.Committing {
		r.commits += int(n)
	}
}

func TestProbeEventStream(t *testing.T) {
	fm := &fakeMem{latency: 250}
	core := newTestCore(t, memParams(), fm)
	probe := &recordingProbe{}
	core.AttachProbe(probe)
	run(core, fm, 0, 30000)
	st := core.Stats()

	if probe.cycles != 30000 {
		t.Errorf("OnCycles saw %d cycles, want 30000", probe.cycles)
	}
	if uint64(probe.commits) != st.CommitCycles {
		t.Errorf("committing cycles seen by probe (%d) != stats (%d)", probe.commits, st.CommitCycles)
	}
	if uint64(probe.issued) != st.L1Misses {
		t.Errorf("OnLoadIssued count %d != L1 misses %d", probe.issued, st.L1Misses)
	}
	if probe.completedSMS == 0 {
		t.Error("no SMS load completions observed")
	}
	if probe.stalls == 0 || probe.resumes == 0 {
		t.Errorf("expected stall/resume events, got %d/%d", probe.stalls, probe.resumes)
	}
	if probe.resumes > probe.stalls {
		t.Errorf("more resumes (%d) than stalls (%d)", probe.resumes, probe.stalls)
	}
}

func TestOverlapAccounting(t *testing.T) {
	fm := &fakeMem{latency: 300}
	// Independent loads with plenty of compute between them: the core should
	// commit instructions while loads are outstanding, producing overlap.
	p := memParams()
	p.LoadFrac = 0.15
	p.LoadDepFrac = 0
	core := newTestCore(t, p, fm)
	run(core, fm, 0, 40000)
	st := core.Stats()
	if st.SMSLoads == 0 {
		t.Fatal("no SMS loads")
	}
	if st.SMSOverlapSum == 0 {
		t.Error("expected nonzero commit/load overlap for independent loads")
	}
	if st.SMSOverlapSum > st.SMSLatencySum {
		t.Errorf("overlap %d cycles cannot exceed SMS latency %d cycles", st.SMSOverlapSum, st.SMSLatencySum)
	}
}

func TestStallKindString(t *testing.T) {
	names := map[StallKind]string{StallNone: "commit", StallInd: "ind", StallPMS: "pms", StallSMS: "sms", StallOther: "other"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("StallKind(%d) = %q, want %q", k, k.String(), want)
		}
	}
	if StallKind(99).String() != "unknown" {
		t.Error("unknown stall kind should render as unknown")
	}
}

func TestNopProbeImplementsProbe(t *testing.T) {
	var p Probe = NopProbe{}
	p.OnLoadIssued(0, 0)
	p.OnLoadCompleted(0, false, 0, 0, 0)
	p.OnCommitStall(0, false, 0)
	p.OnCommitResume(0, false, 0)
	p.OnCycles(&CycleState{}, 1)
}

func TestCoreAccessors(t *testing.T) {
	fm := &fakeMem{latency: 100}
	core := newTestCore(t, memParams(), fm)
	if core.id != 0 {
		t.Error("wrong core id")
	}
	if core.l1d == nil || core.l2 == nil {
		t.Error("private caches not built")
	}
}
