package accounting

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
)

// ASM implements the Application Slowdown Model (Subramanian et al.), the
// invasive accounting baseline. ASM rotates a high-priority epoch across the
// cores: during core i's epoch, the memory controller services core i's
// requests first, approximating the request service rate the core would see
// alone. ASM then estimates the application's slowdown as the ratio of the
// shared-memory access rate measured during its high-priority epochs to the
// rate measured over the whole interval, and derives the private-mode CPI as
// the shared-mode CPI divided by that slowdown.
//
// Because ASM changes memory-controller behaviour it is *invasive*: attaching
// it perturbs the performance of every application in the workload. It also
// inherits the backlog problem the GDP paper describes: a core entering its
// high-priority epoch with a queue backlog measures a distorted alone-rate,
// and the distortion grows with core count because epochs recur less often.
type ASM struct {
	cores    int
	epochLen uint64

	probes []*asmProbe

	// intervalStart is the first cycle of the interval being estimated.
	// Intervals tile the run from cycle 0, so Estimate sets intervalEnd from
	// the interval's length and EndInterval, which runs after the interval's
	// Estimates, moves the start there. BindController starts both afresh,
	// so an instance can serve one run after another.
	intervalStart, intervalEnd uint64
}

// asmProbe counts per-core shared-memory accesses, split into those that
// complete during the core's high-priority epochs and all of them. The cycles
// they are divided by need no probe: the interval's length is in its Stats,
// and the high-priority share follows from the epoch schedule.
type asmProbe struct {
	cpu.NopProbe
	core  int
	owner *ASM

	totalAccesses uint64
	hpAccesses    uint64
}

// OnLoadCompleted counts completed shared-memory accesses, crediting one to
// the high-priority count when the core owns its completion cycle.
func (p *asmProbe) OnLoadCompleted(_ uint64, sms bool, cycle uint64, _, _, _ uint64) {
	if !sms {
		return
	}
	p.totalAccesses++
	if dram.EpochOwner(cycle, p.owner.epochLen, p.owner.cores) == p.core {
		p.hpAccesses++
	}
}

// BindController starts a run: it programs c with ASM's epoch rotation, which
// is the invasive part, and resets the per-run state. The simulation driver
// calls it once the shared memory system exists, so an ASM instance can be
// constructed before the system it will be attached to.
func (a *ASM) BindController(c *dram.Controller) {
	c.SetRotation(a.epochLen, a.cores)
	a.intervalStart, a.intervalEnd = 0, 0
	for _, p := range a.probes {
		p.totalAccesses, p.hpAccesses = 0, 0
	}
}

// NewASM creates an ASM accountant whose high-priority epoch rotates every
// epochLen cycles (0 selects 5000).
func NewASM(cores int, epochLen uint64) (*ASM, error) {
	if cores < 1 {
		return nil, fmt.Errorf("accounting: need at least one core")
	}
	if epochLen == 0 {
		epochLen = 5000
	}
	a := &ASM{cores: cores, epochLen: epochLen}
	for c := 0; c < cores; c++ {
		a.probes = append(a.probes, &asmProbe{core: c, owner: a})
	}
	return a, nil
}

// Name implements Accountant.
func (a *ASM) Name() string { return "ASM" }

// Probe implements Accountant.
func (a *ASM) Probe(core int) cpu.Probe { return a.probes[core] }

// ObserveRequest implements Accountant.
func (a *ASM) ObserveRequest(int, *mem.Request) {}

// ownedCycles returns how many of the cycles [0, to) fall in core's
// high-priority epochs: epochLen for each full rotation, plus the part of
// the last one up to the owner of cycle to.
func (a *ASM) ownedCycles(core int, to uint64) uint64 {
	n := to / a.epochLen / uint64(a.cores) * a.epochLen
	switch owner := dram.EpochOwner(to, a.epochLen, a.cores); {
	case owner > core:
		n += a.epochLen
	case owner == core:
		n += to % a.epochLen
	}
	return n
}

// Estimate implements Accountant.
func (a *ASM) Estimate(core int, interval cpu.Stats) Estimate {
	p := a.probes[core]
	sharedCPI := interval.CPI()
	a.intervalEnd = a.intervalStart + interval.Cycles
	hpCycles := a.ownedCycles(core, a.intervalEnd) - a.ownedCycles(core, a.intervalStart)

	// Access rates: requests per cycle overall and during high-priority epochs.
	var carShared, carAlone float64
	if interval.Cycles > 0 {
		carShared = float64(p.totalAccesses) / float64(interval.Cycles)
	}
	if hpCycles > 0 {
		carAlone = float64(p.hpAccesses) / float64(hpCycles)
	}

	slowdown := 1.0
	if carShared > 0 && carAlone > 0 {
		slowdown = carAlone / carShared
	}
	if slowdown < 1e-6 {
		slowdown = 1e-6
	}

	privateCPI := 0.0
	if slowdown > 0 && sharedCPI > 0 {
		privateCPI = sharedCPI / slowdown
	}
	privateCycles := float64(privateCPI * float64(interval.Instructions)) // rounded, not fused (make fma-check)
	_, ipc := cpiFromCycles(privateCycles, interval)
	return Estimate{
		PrivateCPI:     privateCPI,
		PrivateIPC:     ipc,
		SMSStallCycles: stallEstimateFromCycles(privateCycles, interval),
	}
}

// EndInterval implements Accountant.
func (a *ASM) EndInterval() {
	a.intervalStart = a.intervalEnd
	for _, p := range a.probes {
		p.totalAccesses = 0
		p.hpAccesses = 0
	}
}
