package sim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/accounting"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// runStepped runs opts on the one step loop and returns the Result together
// with the stepper, whose unexported work counts the tests below read.
func runStepped(t *testing.T, opts Options) (*Result, *stepper) {
	t.Helper()
	st, err := newRunState(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.runFast(context.Background()); err != nil {
		t.Fatal(err)
	}
	return st.res, st.clk
}

// TestSyncRulesAllExercised runs the one configuration that reaches all three
// hazards of a deferred span — interference misses sampled by the ATDs
// (cache-thrash), interval boundaries, completions delivered to stalled
// cores — with ASM's priority rotation on an epoch that is not
// interval-aligned (900 cycles), and requires fast ≡ Reference with every
// cause counted at least once. A refactor that makes one of the stepper's
// sync rules unreachable then shows up here as a zero, not as a differential
// suite that silently stopped covering it.
func TestSyncRulesAllExercised(t *testing.T) {
	const cores = 4
	options := func(reference bool) Options {
		opts := scenarioOptions(t, "cache-thrash", cores)
		itca, err := accounting.NewITCA(cores)
		if err != nil {
			t.Fatal(err)
		}
		ptca, err := accounting.NewPTCA(cores)
		if err != nil {
			t.Fatal(err)
		}
		asm, err := accounting.NewASM(cores, 900)
		if err != nil {
			t.Fatal(err)
		}
		opts.Accountants = []accounting.Accountant{itca, ptca, asm}
		opts.Reference = reference
		return opts
	}
	ref, refClk := runStepped(t, options(true))
	fast, clk := runStepped(t, options(false))
	mustEqualResults(t, ref, fast)

	for _, c := range []struct {
		rule  string
		count uint64
	}{
		{"rule 1: completion delivered to a core that was not due", clk.completionWakes},
		{"rule 2: interference miss on a request of a core that had fallen behind", clk.missSyncs},
		{"rule 3: interval boundary with a component behind", clk.boundarySyncs},
	} {
		if c.count == 0 {
			t.Errorf("%s: never happened, so this run no longer covers it", c.rule)
		}
	}
	if n := refClk.completionWakes + refClk.missSyncs + refClk.boundarySyncs; n != 0 {
		t.Errorf("reference run settled or woke a component %d times; nothing may fall behind with skipping off", n)
	}
	t.Logf("completion wakes %d, interference-miss syncs %d, boundary syncs %d",
		clk.completionWakes, clk.missSyncs, clk.boundarySyncs)
}

// stallCounter wraps an accountant so that each core's probe counts the
// OnCycles calls and cycles it receives.
type stallCounter struct {
	accounting.Accountant
	probes []*countingProbe
}

type countingProbe struct {
	cpu.StallProbe
	calls, cycles uint64
}

func (p *countingProbe) OnCycles(s *cpu.CycleState, n uint64) {
	p.calls++
	p.cycles += n
	p.StallProbe.OnCycles(s, n)
}

func countStalls(t *testing.T, a accounting.Accountant, cores int) *stallCounter {
	t.Helper()
	c := &stallCounter{Accountant: a}
	for i := range cores {
		p, ok := a.Probe(i).(cpu.StallProbe)
		if !ok {
			t.Fatalf("%s's probe does not observe stall cycles", a.Name())
		}
		c.probes = append(c.probes, &countingProbe{StallProbe: p})
	}
	return c
}

func (c *stallCounter) Probe(core int) cpu.Probe { return c.probes[core] }

// totals returns the OnCycles calls and cycles over every core's probe.
func (c *stallCounter) totals() (calls, cycles uint64) {
	for _, p := range c.probes {
		calls += p.calls
		cycles += p.cycles
	}
	return calls, cycles
}

// TestStepperTicksOnlyDueComponents pins, in exact counts, that the work
// disappears: a stalled core is not ticked on the cycles other components act
// on, a memory system with nothing in flight is not ticked while the cores
// compute, and the memory controller is not ticked on the memory system's
// ticks that only move requests through the ring and the LLC. A cycle on
// which no component has an event is not visited at all. With skipping off
// every hardware component is ticked on every cycle. Either way a stall probe
// (ITCA's, counted here) hears of exactly the non-committing cycles: one
// OnCycles call per non-committing tick and per idle span, none on a
// committing tick.
func TestStepperTicksOnlyDueComponents(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		cores    int
		// Upper bounds on executed ticks as a share of the maximum (cores ×
		// visited cycles, visited cycles, memsys ticks); 1 leaves that
		// component unbounded.
		coreShare, memShare, mcShare float64
		// maxVisited bounds the visited cycles (0: unbounded).
		maxVisited uint64
	}{
		{"latency-bound", 4, 0.15, 1, 0.25, 45000},
		{"compute-heavy", 2, 1, 0.30, 1, 0},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			// run runs the scenario with ITCA's probes counted and checks the
			// stall-probe counts, which are exact at either skip policy.
			run := func(reference bool) (*Result, *stepper) {
				opts := scenarioOptions(t, tc.scenario, tc.cores)
				opts.Reference = reference
				itca := countStalls(t, opts.Accountants[2], tc.cores)
				opts.Accountants[2] = itca
				res, clk := runStepped(t, opts)
				var commitTicks, stallCycles uint64
				for _, st := range res.CoreStats {
					commitTicks += st.CommitCycles // spans never commit: each is a tick
					stallCycles += st.Cycles - st.CommitCycles
				}
				calls, cycles := itca.totals()
				if want := clk.coreTicks - commitTicks + clk.spans; calls != want {
					t.Errorf("reference=%v: %d OnCycles calls, want %d (%d non-committing ticks + %d idle spans)",
						reference, calls, want, clk.coreTicks-commitTicks, clk.spans)
				}
				if cycles != stallCycles {
					t.Errorf("reference=%v: OnCycles saw %d cycles, want the %d non-committing ones", reference, cycles, stallCycles)
				}
				t.Logf("reference=%v: %d core ticks, %d committing; %d idle spans; %d OnCycles calls for %d stall cycles",
					reference, clk.coreTicks, commitTicks, clk.spans, calls, cycles)
				return res, clk
			}
			res, clk := run(false)
			coreMax := uint64(tc.cores) * clk.visited
			coreShare := float64(clk.coreTicks) / float64(coreMax)
			memShare := float64(clk.memTicks) / float64(clk.visited)
			mcTicks := clk.shared.ControllerTicks()
			mcShare := float64(mcTicks) / float64(clk.memTicks)
			t.Logf("%d cycles, %d visited; core ticks %d of %d (%.3f); memsys ticks %d (%.3f); controller ticks %d (%.3f of memsys)",
				res.Cycles, clk.visited, clk.coreTicks, coreMax, coreShare, clk.memTicks, memShare, mcTicks, mcShare)
			if coreShare > tc.coreShare {
				t.Errorf("core ticks are %.3f of cores × visited cycles, want <= %.2f", coreShare, tc.coreShare)
			}
			if memShare > tc.memShare {
				t.Errorf("memsys ticks are %.3f of visited cycles, want <= %.2f", memShare, tc.memShare)
			}
			if mcShare > tc.mcShare {
				t.Errorf("controller ticks are %.3f of memsys ticks, want <= %.2f", mcShare, tc.mcShare)
			}
			if tc.maxVisited > 0 && clk.visited > tc.maxVisited {
				t.Errorf("visited %d cycles, want <= %d", clk.visited, tc.maxVisited)
			}

			ref, refClk := run(true)
			if refClk.visited != ref.Cycles {
				t.Errorf("reference visited %d of %d cycles, want all", refClk.visited, ref.Cycles)
			}
			if want := uint64(tc.cores) * ref.Cycles; refClk.coreTicks != want {
				t.Errorf("reference executed %d core ticks, want %d (every core, every cycle)", refClk.coreTicks, want)
			}
			if refClk.memTicks != ref.Cycles {
				t.Errorf("reference executed %d memsys ticks, want %d (every cycle)", refClk.memTicks, ref.Cycles)
			}
			if n := refClk.shared.ControllerTicks(); n != ref.Cycles {
				t.Errorf("reference executed %d controller ticks, want %d (every cycle)", n, ref.Cycles)
			}
		})
	}
}

// TestNextEventBoundsHold checks, per component, the promise the stepper's
// cached bounds rest on: while a bound a component gave is still in the
// future and no input from outside has reached it since (a completion for a
// core, a Submit for the memory system, an Enqueue for the memory controller),
// its Tick changes nothing. With skipping off every component is ticked on
// every cycle. A core answers now+1 after any state-changing Tick, so it must
// repeat a held bound; the memory system, the memory controller and the ring
// are checked directly, on a fingerprint of their observable state taken
// before and after the Tick (the controller's queue-interference charge is
// the one per-cycle change it may make, and the fingerprints leave it out). A
// component that promised too late a cycle fails here by name instead of as
// an end-to-end fast ≠ reference diff.
func TestNextEventBoundsHold(t *testing.T) {
	const cycles = 30000
	type memPrint struct {
		pending       int
		stats         memsys.Stats
		mc            dram.Stats
		req, rsp, que uint64
	}
	for _, name := range workload.ScenarioNames() {
		for _, cores := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%dc", name, cores), func(t *testing.T) {
				opts := scenarioOptions(t, name, cores)
				opts.Reference = true
				st, err := newRunState(opts)
				if err != nil {
					t.Fatal(err)
				}
				shared, mc, rg := st.shared, st.shared.Controller(), st.shared.Ring()
				shared.StartClock(0, true) // tick the controller every cycle
				fingerprint := func() memPrint {
					req, rsp := rg.Delivered()
					return memPrint{shared.PendingCount(), shared.Stats(), mc.Stats(), req, rsp, rg.TotalQueueing()}
				}
				changed := func(component string, now, held uint64) {
					t.Fatalf("%s: promised no event before cycle %d, but its Tick at cycle %d changed state",
						component, held, now)
				}
				coreBound := make([]uint64, cores)
				var memBound, mcBound, ringBound uint64
				for now := uint64(0); now < cycles; now++ {
					// Bounds are taken at the end of the previous cycle, after
					// the cores submitted and the memory system enqueued. Within
					// the memory system's Tick the controller ticks before any
					// Enqueue, and a message the ring accepts on cycle now is
					// not ready before now+1, so its Deliver is unaffected.
					before := fingerprint()
					shared.Tick(now)
					after := fingerprint()
					if mcBound > now && (after.mc.RowHits != before.mc.RowHits || after.mc.RowMisses != before.mc.RowMisses ||
						after.mc.RowConflicts != before.mc.RowConflicts || after.mc.AvgReadLatency != before.mc.AvgReadLatency) {
						changed("dram.Controller", now, mcBound)
					}
					if ringBound > now && (after.req != before.req || after.rsp != before.rsp || after.que != before.que) {
						changed("ring.Ring", now, ringBound)
					}
					if memBound > now && after != before {
						changed("memsys.System", now, memBound)
					}
					for i, core := range st.cores {
						completed := shared.Completed(i)
						for _, req := range completed {
							core.CompleteRequest(req, now)
						}
						core.Tick(now)
						got := core.NextEvent(now)
						if len(completed) == 0 && coreBound[i] > now+1 && got != coreBound[i] {
							changed(fmt.Sprintf("cpu.Core %d", i), now, coreBound[i])
						}
						coreBound[i] = got
					}
					memBound = shared.NextEvent(now)
					mcBound, ringBound = mc.NextEvent(now), rg.NextEvent(now)
				}
			})
		}
	}
}
