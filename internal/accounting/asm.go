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
	cores      int
	epochLen   uint64
	controller *dram.Controller

	probes []*asmProbe

	currentOwner int
	epochStart   uint64
}

// asmProbe measures per-core shared-memory access rates.
type asmProbe struct {
	cpu.NopProbe
	core  int
	owner *ASM

	totalCycles   uint64
	totalAccesses uint64
	hpCycles      uint64
	hpAccesses    uint64
}

// OnCycles counts cycles, split into high-priority and normal ones. The
// epoch owner is constant over a span (epoch boundaries are events the driver
// never skips past), so the cycle counters advance by the span length.
func (p *asmProbe) OnCycles(_ *cpu.CycleState, cycles uint64) {
	p.totalCycles += cycles
	if p.owner.currentOwner == p.core {
		p.hpCycles += cycles
	}
}

// OnLoadCompleted counts completed shared-memory accesses.
func (p *asmProbe) OnLoadCompleted(_ uint64, sms bool, _ uint64, _, _ uint64) {
	if !sms {
		return
	}
	p.totalAccesses++
	if p.owner.currentOwner == p.core {
		p.hpAccesses++
	}
}

// BindController attaches the memory controller ASM manipulates. The
// simulation driver calls it once the shared memory system exists, so an ASM
// instance can be constructed before the system it will be attached to.
func (a *ASM) BindController(c *dram.Controller) { a.controller = c }

// NewASM creates an ASM accountant. controller may be nil (for tests); then
// the priority manipulation is skipped but the estimation model still runs.
func NewASM(cores int, epochLen uint64, controller *dram.Controller) (*ASM, error) {
	if cores < 1 {
		return nil, fmt.Errorf("accounting: need at least one core")
	}
	if epochLen == 0 {
		epochLen = 5000
	}
	a := &ASM{
		cores:      cores,
		epochLen:   epochLen,
		controller: controller,
	}
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

// Tick implements Accountant: it advances the rotating high-priority epoch
// and programs the memory controller accordingly. This is the invasive part.
func (a *ASM) Tick(now uint64) {
	if now-a.epochStart >= a.epochLen || now == 0 {
		if now != 0 {
			a.currentOwner = (a.currentOwner + 1) % a.cores
		}
		a.epochStart = now
		if a.controller != nil {
			a.controller.SetPriorityCore(a.currentOwner)
		}
	}
}

// NextEvent implements Accountant: ASM's Tick must run at every epoch
// boundary (it rotates the high-priority core and reprograms the memory
// controller), so the fast-forwarding driver never skips past one.
func (a *ASM) NextEvent(now uint64) uint64 {
	next := a.epochStart + a.epochLen
	if next <= now {
		return now + 1
	}
	return next
}

// Estimate implements Accountant.
func (a *ASM) Estimate(core int, interval cpu.Stats) Estimate {
	p := a.probes[core]
	sharedCPI := interval.CPI()

	// Access rates: requests per cycle overall and during high-priority epochs.
	var carShared, carAlone float64
	if p.totalCycles > 0 {
		carShared = float64(p.totalAccesses) / float64(p.totalCycles)
	}
	if p.hpCycles > 0 {
		carAlone = float64(p.hpAccesses) / float64(p.hpCycles)
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
	privateCycles := privateCPI * float64(interval.Instructions)
	_, ipc := cpiFromCycles(privateCycles, interval)
	return Estimate{
		PrivateCPI:     privateCPI,
		PrivateIPC:     ipc,
		SMSStallCycles: stallEstimateFromCycles(privateCycles, interval),
	}
}

// EndInterval implements Accountant.
func (a *ASM) EndInterval() {
	for _, p := range a.probes {
		p.totalCycles = 0
		p.totalAccesses = 0
		p.hpCycles = 0
		p.hpAccesses = 0
	}
}
