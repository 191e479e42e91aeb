package gdp

import (
	"context"
	"sync"

	"repro/internal/telemetry"
)

// coalescer merges concurrent identical POST /v1/estimate requests into one
// simulation. Requests are grouped by the spec key of their decoded body; the
// first arrival becomes the group's leader and starts the engine at once, and
// every request that arrives before the leader finishes joins the group and
// shares the response. It is pure in-flight deduplication: no request ever
// waits longer than the simulation it shares.
//
// Estimate responses are not memoized in the result cache (an estimate is
// cheap enough to re-run when traffic is not concurrent), so under sustained
// multi-tenant load the coalescer is what turns N identical bursts into one
// simulation instead of N.
type coalescer struct {
	mu     sync.Mutex
	groups map[string]*coalesceGroup
	// estimate runs one group's simulation (the Engine's Estimate).
	estimate func(context.Context, *EstimateRequest) (*EstimateResponse, error)
	metrics  *coalesceMetrics
}

// coalesceGroup is one in-flight set of identical requests sharing a
// simulation. waiters and abandoned are guarded by the coalescer's mutex;
// resp and err are written once before done closes.
type coalesceGroup struct {
	key  string
	done chan struct{} // closed when resp/err are ready
	resp *EstimateResponse
	err  error
	// cancel aborts the group's simulation; called when every waiter has
	// disconnected, and after completion to release the context.
	cancel  context.CancelFunc
	waiters int // requests currently blocked on done
	// abandoned marks a group whose every waiter left before completion: its
	// simulation is being cancelled, so new arrivals must start fresh
	// instead of inheriting the foreign cancellation error.
	abandoned bool
}

// coalesceMetrics are the /metrics counters of the request coalescer.
type coalesceMetrics struct {
	// batches counts executed groups (one simulation each).
	batches *telemetry.Counter
	// joined counts requests that shared another request's simulation.
	joined *telemetry.Counter
}

func newCoalesceMetrics(r *telemetry.Registry) *coalesceMetrics {
	return &coalesceMetrics{
		batches: r.Counter("gdpsim_coalesce_batches_total",
			"Coalesced estimate groups executed (one simulation each)."),
		joined: r.Counter("gdpsim_coalesce_joined_total",
			"Estimate requests that shared another identical request's simulation."),
	}
}

func newCoalescer(estimate func(context.Context, *EstimateRequest) (*EstimateResponse, error), m *coalesceMetrics) *coalescer {
	return &coalescer{
		groups:   map[string]*coalesceGroup{},
		estimate: estimate,
		metrics:  m,
	}
}

// coalescedEstimate is the /v1/estimate entry point: identical concurrent
// requests (same spec key) run one simulation. A body that could not be keyed
// (key "") falls through to the engine, which produces the proper error.
func (s *Server) coalescedEstimate(ctx context.Context, req *EstimateRequest, key string) (*EstimateResponse, error) {
	if key == "" {
		// Cannot group: fall through to the engine (which produces the
		// proper validation error) under a concurrency slot of its own.
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			return nil, errServerBusy
		}
		return s.engine.Estimate(ctx, req)
	}
	co := s.coalesce
	co.mu.Lock()
	g := co.groups[key]
	if g != nil && g.abandoned {
		g = nil // dying group: its simulation is being cancelled
	}
	if g == nil {
		// The leader charges the concurrency limiter one slot, held for the
		// group's whole simulation; joiners ride along for free. Shedding
		// therefore bounds concurrent *simulations*, not concurrent requests —
		// a burst of identical requests costs one slot total.
		select {
		case s.sem <- struct{}{}:
		default:
			co.mu.Unlock()
			return nil, errServerBusy
		}
		runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		g = &coalesceGroup{
			key:     key,
			done:    make(chan struct{}),
			cancel:  cancel,
			waiters: 1,
		}
		co.groups[key] = g
		co.mu.Unlock()
		go func() {
			defer func() { <-s.sem }()
			co.run(runCtx, g, req)
		}()
	} else {
		g.waiters++
		co.mu.Unlock()
		co.metrics.joined.Inc()
	}
	defer co.release(g)
	select {
	case <-g.done:
		return g.resp, g.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run executes one group: it simulates once, publishes the result and retires
// the group so later requests start fresh. The batch is counted before the
// waiters wake, so a scrape after any response already sees it.
func (co *coalescer) run(ctx context.Context, g *coalesceGroup, req *EstimateRequest) {
	resp, err := co.estimate(ctx, req)
	co.metrics.batches.Inc()
	co.mu.Lock()
	g.resp, g.err = resp, err
	if co.groups[g.key] == g {
		delete(co.groups, g.key)
	}
	close(g.done)
	co.mu.Unlock()
}

// release drops one waiter from a group. When the last live waiter leaves,
// the group's simulation context is cancelled: either nobody is listening for
// the result (abort the run at its next interval boundary) or the group
// already completed (release the context's resources).
func (co *coalescer) release(g *coalesceGroup) {
	co.mu.Lock()
	g.waiters--
	last := g.waiters == 0
	if last {
		select {
		case <-g.done:
			// Completed: the cancel below only frees the context.
		default:
			g.abandoned = true
			if co.groups[g.key] == g {
				delete(co.groups, g.key)
			}
		}
	}
	co.mu.Unlock()
	if last {
		g.cancel()
	}
}
