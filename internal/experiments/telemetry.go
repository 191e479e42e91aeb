package experiments

import (
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Instrumentation bundles the telemetry sinks a study driver threads through
// its layers: the runner pool metrics and the engine-level simulation
// counters. A nil *Instrumentation disables all of it; every accessor and
// increment is nil-safe so drivers never branch.
type Instrumentation struct {
	Pool *runner.PoolMetrics
	Sim  *sim.Metrics
}

// NewInstrumentation registers the full experiment-layer metric set on r.
func NewInstrumentation(r *telemetry.Registry) *Instrumentation {
	return &Instrumentation{
		Pool: runner.NewPoolMetrics(r),
		Sim:  sim.NewMetrics(r),
	}
}

// pool returns the pool metrics (nil for nil Instrumentation).
func (in *Instrumentation) pool() *runner.PoolMetrics {
	if in == nil {
		return nil
	}
	return in.Pool
}

// simMetrics returns the simulation counters (nil for nil Instrumentation).
func (in *Instrumentation) simMetrics() *sim.Metrics {
	if in == nil {
		return nil
	}
	return in.Sim
}
