package sim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/accounting"
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

// TestSyncRulesAllExercised runs the one configuration that reaches all four
// hazards of a deferred span — interference misses sampled by the ATDs
// (cache-thrash), an invasive accountant whose epoch is not interval-aligned
// (ASM, 900 cycles), interval boundaries, completions delivered to stalled
// cores — and requires fast ≡ Reference with every cause counted at least
// once. A refactor that makes one of the stepper's sync rules unreachable then
// shows up here as a zero, not as a differential suite that silently stopped
// covering it.
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
		asm, err := accounting.NewASM(cores, 900, nil)
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
		{"rule 3: accountant event with a component behind", clk.acctSyncs},
		{"rule 4: interval boundary with a component behind", clk.boundarySyncs},
	} {
		if c.count == 0 {
			t.Errorf("%s: never happened, so this run no longer covers it", c.rule)
		}
	}
	if n := refClk.completionWakes + refClk.missSyncs + refClk.acctSyncs + refClk.boundarySyncs; n != 0 {
		t.Errorf("reference run settled or woke a component %d times; nothing may fall behind with skipping off", n)
	}
	t.Logf("completion wakes %d, interference-miss syncs %d, accountant-event syncs %d, boundary syncs %d",
		clk.completionWakes, clk.missSyncs, clk.acctSyncs, clk.boundarySyncs)
}

// TestStepperTicksOnlyDueComponents pins, in exact counts, that the work
// disappears: a stalled core is not ticked on the cycles other components act
// on, and a memory system with nothing in flight is not ticked while the
// cores compute. With skipping off every component is ticked on every cycle.
func TestStepperTicksOnlyDueComponents(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		cores    int
		// Upper bounds on executed ticks as a share of the maximum (cores ×
		// visited cycles, visited cycles); 1 leaves that component unbounded.
		coreShare, memShare float64
	}{
		{"latency-bound", 4, 0.15, 1},
		{"compute-heavy", 2, 1, 0.30},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			res, clk := runStepped(t, scenarioOptions(t, tc.scenario, tc.cores))
			coreMax := uint64(tc.cores) * clk.visited
			coreShare := float64(clk.coreTicks) / float64(coreMax)
			memShare := float64(clk.memTicks) / float64(clk.visited)
			t.Logf("%d cycles, %d visited; core ticks %d of %d (%.3f); memsys ticks %d (%.3f)",
				res.Cycles, clk.visited, clk.coreTicks, coreMax, coreShare, clk.memTicks, memShare)
			if coreShare > tc.coreShare {
				t.Errorf("core ticks are %.3f of cores × visited cycles, want <= %.2f", coreShare, tc.coreShare)
			}
			if memShare > tc.memShare {
				t.Errorf("memsys ticks are %.3f of visited cycles, want <= %.2f", memShare, tc.memShare)
			}

			refOpts := scenarioOptions(t, tc.scenario, tc.cores)
			refOpts.Reference = true
			ref, refClk := runStepped(t, refOpts)
			if refClk.visited != ref.Cycles {
				t.Errorf("reference visited %d of %d cycles, want all", refClk.visited, ref.Cycles)
			}
			if want := uint64(tc.cores) * ref.Cycles; refClk.coreTicks != want {
				t.Errorf("reference executed %d core ticks, want %d (every core, every cycle)", refClk.coreTicks, want)
			}
			if refClk.memTicks != ref.Cycles {
				t.Errorf("reference executed %d memsys ticks, want %d (every cycle)", refClk.memTicks, ref.Cycles)
			}
		})
	}
}

// TestNextEventBoundsHold checks, per component, the promise the stepper's
// cached bounds rest on. With skipping off every component is ticked on every
// cycle, and after each Tick it is asked for its bound again: while a bound it
// gave earlier is still in the future and no input from outside has reached it
// since (a completion for a core, a Submit for the memory system), it must
// repeat that bound. NextEvent answers now+1 after any Tick that changed
// state, so a repeated bound is the public face of "the Tick left the
// component inactive", and a component that promised too late a cycle fails
// here by name instead of as an end-to-end fast ≠ reference diff.
func TestNextEventBoundsHold(t *testing.T) {
	const cycles = 30000
	for _, name := range workload.ScenarioNames() {
		for _, cores := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%dc", name, cores), func(t *testing.T) {
				opts := scenarioOptions(t, name, cores)
				opts.Reference = true
				st, err := newRunState(opts)
				if err != nil {
					t.Fatal(err)
				}
				check := func(component string, now, held, got uint64) {
					if held > now+1 && got != held {
						t.Fatalf("%s: promised no event before cycle %d, but its Tick at cycle %d changed state (bound now %d)",
							component, held, now, got)
					}
				}
				coreBound := make([]uint64, cores)
				memBound := uint64(0)
				for now := uint64(0); now < cycles; now++ {
					// Cores submit after the memory system's Tick, so its bound
					// is the one taken at the end of the previous cycle.
					st.shared.Tick(now)
					check("memsys.System", now, memBound, st.shared.NextEvent(now))
					for i, core := range st.cores {
						completed := st.shared.Completed(i)
						for _, req := range completed {
							core.CompleteRequest(req, now)
						}
						core.Tick(now)
						got := core.NextEvent(now)
						if len(completed) == 0 {
							check(fmt.Sprintf("cpu.Core %d", i), now, coreBound[i], got)
						}
						coreBound[i] = got
					}
					memBound = st.shared.NextEvent(now)
				}
			})
		}
	}
}
