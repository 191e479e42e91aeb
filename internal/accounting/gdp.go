package accounting

import (
	"fmt"

	gdpcore "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dief"
	"repro/internal/mem"
)

// GDPAccountant pairs the dataflow-accounting unit (internal/core) with the
// DIEF latency estimator behind the Accountant interface. UseOverlap selects
// between GDP and GDP-O.
type GDPAccountant struct {
	name       string
	useOverlap bool
	units      []*gdpcore.GDP
	latency    *dief.Estimator
}

// NewGDP creates a GDP (useOverlap=false) or GDP-O (useOverlap=true)
// accountant named name for a CMP with the given number of cores and PRB
// size. New names it after its technique; a run that carries the technique at
// several PRB sizes names each instance apart ("GDP-O/8").
func NewGDP(name string, cores int, prbEntries int, useOverlap bool) (*GDPAccountant, error) {
	if cores < 1 {
		return nil, fmt.Errorf("accounting: need at least one core")
	}
	lat, err := dief.New(cores)
	if err != nil {
		return nil, err
	}
	a := &GDPAccountant{
		name:       name,
		useOverlap: useOverlap,
		latency:    lat,
	}
	for c := 0; c < cores; c++ {
		unit, err := gdpcore.New(gdpcore.Options{PRBEntries: prbEntries, TrackOverlap: useOverlap})
		if err != nil {
			return nil, err
		}
		a.units = append(a.units, unit)
	}
	return a, nil
}

// Name implements Accountant.
func (a *GDPAccountant) Name() string { return a.name }

// SetLatencyFloor forwards the per-core unloaded-latency floor to DIEF.
func (a *GDPAccountant) SetLatencyFloor(core int, floor uint64) {
	a.latency.SetLatencyFloor(core, floor)
}

// Probe implements Accountant: the GDP unit itself is the probe.
func (a *GDPAccountant) Probe(core int) cpu.Probe { return a.units[core] }

// ObserveRequest implements Accountant: completed requests feed DIEF.
func (a *GDPAccountant) ObserveRequest(core int, req *mem.Request) {
	a.latency.Observe(req)
}

// Estimate implements Accountant using Equation 2.
func (a *GDPAccountant) Estimate(core int, interval cpu.Stats) Estimate {
	cpl, overlap := a.units[core].Retrieve()
	return gdpEstimate(interval, cpl, overlap, a.latency.PrivateLatency(core), a.useOverlap)
}

// EndInterval implements Accountant: DIEF accumulators are per interval.
func (a *GDPAccountant) EndInterval() { a.latency.ResetInterval() }
