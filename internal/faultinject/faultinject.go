// Package faultinject is the deterministic fault-injection harness of the
// reproduction: a seeded, rule-based injector with named injection points
// threaded through the I/O and distribution layers (disk cache reads/writes,
// the dispatch client transport and its NDJSON result stream, worker-side
// cell execution and the runner pool). The disk cache is the one durable
// store, so disk.write is also the fault point of a resumable sweep.
//
// A fault specification is a comma-separated list of rules, each of the form
//
//	point:action[:modifier]...
//
// where point names one of the registered injection points (Points), action
// is one of
//
//	err=ERRNO    return an injected error wrapping the named errno
//	             (EIO, ENOSPC, ECONNRESET, EPIPE, ETIMEDOUT)
//	cut[=P]      cut a stream / connection with probability P (default 1)
//	panic[=P]    panic with probability P (default 1)
//
// and the modifiers bound when the rule fires:
//
//	every=N      fire deterministically on every Nth hit of the point
//	p=X          fire with probability X per hit (seeded, reproducible)
//	times=N      stop after N injections
//	after=N      skip the first N hits
//
// Examples:
//
//	disk.write:err=EIO:every=7      every 7th disk-cache write fails with EIO
//	dispatch.stream:cut=0.05        5% of result-stream reads are cut
//	cell.exec:panic=1:times=1       the first dispatched cell execution panics
//
// The injector is process-global and armed explicitly (SetActive), typically
// from the FI_SPEC environment variable or the gdpsim -fault-spec flag. When
// no injector is armed, every hook compiles down to one atomic pointer load
// and a branch — the harness costs nothing in production builds and needs no
// build tags. Probabilistic rules draw from a seeded PRNG per rule, so a
// given (spec, seed) pair injects the same fault sequence on every run:
// chaos tests are replayable.
//
// Every injection increments a per-point counter exported through
// RegisterMetrics as gdpsim_fault_injected_total{point}, so smoke tests and
// operators can confirm the harness actually fired.
package faultinject

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/telemetry"
)

// Registered injection points. Rules may only name points from this list —
// a typo in a spec is a parse error, not a silently dead rule.
const (
	// PointDiskRead is the runner disk-cache read path: an injected error is
	// indistinguishable from a missing entry (the cell recomputes).
	PointDiskRead = "disk.read"
	// PointDiskWrite is the runner disk-cache write path: an injected error
	// makes the write-through fail silently, like a full or broken disk.
	PointDiskWrite = "disk.write"
	// PointDispatchSend is the dispatch client's batch POST: an injected
	// error looks like a connection failure before the worker was reached.
	PointDispatchSend = "dispatch.send"
	// PointDispatchStream is the dispatch client's NDJSON result stream: an
	// injected error cuts the stream mid-read, like a dropped connection.
	PointDispatchStream = "dispatch.stream"
	// PointCellExec is worker-side cell execution (the /v1/cells handler):
	// a panic here exercises the worker's recover-into-Retryable hardening.
	PointCellExec = "cell.exec"
	// PointRunnerJob is the local runner pool's job execution path.
	PointRunnerJob = "runner.job"
)

// points is the fixed registry, in a stable order for metrics and docs.
var points = []string{
	PointDiskRead,
	PointDiskWrite,
	PointDispatchSend,
	PointDispatchStream,
	PointCellExec,
	PointRunnerJob,
}

// Points returns the registered injection-point names.
func Points() []string {
	return append([]string(nil), points...)
}

// counts holds the per-point injected-fault counters. They are global (not
// per-injector) so telemetry registration does not depend on when — or
// whether — an injector is armed: the series exist from process start and
// stay zero until a rule fires.
var counts = func() map[string]*atomic.Uint64 {
	m := make(map[string]*atomic.Uint64, len(points))
	for _, p := range points {
		m[p] = &atomic.Uint64{}
	}
	return m
}()

// Count returns the number of faults injected at a point so far.
func Count(point string) uint64 {
	c, ok := counts[point]
	if !ok {
		return 0
	}
	return c.Load()
}

// RegisterMetrics exposes the per-point injection counters on r as
// gdpsim_fault_injected_total{point}. Every registered point gets a series
// (zero until it fires), so /metrics always shows the full set of points.
func RegisterMetrics(r *telemetry.Registry) {
	vec := r.CounterVec("gdpsim_fault_injected_total",
		"Faults injected by the fault-injection harness, by point.", "point")
	for _, p := range points {
		p := p
		vec.WithFunc(func() uint64 { return Count(p) }, p)
	}
}

// InjectedError is the error an err/cut rule returns at its injection point.
// It unwraps to the named errno (syscall.EIO for err=EIO, ...), so code that
// classifies real I/O failures classifies injected ones identically.
type InjectedError struct {
	Point  string
	Action string // "err" or "cut"
	Err    error
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s: %v", e.Action, e.Point, e.Err)
}

func (e *InjectedError) Unwrap() error { return e.Err }

// InjectedPanic is the value a panic rule panics with.
type InjectedPanic struct {
	Point string
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s", p.Point)
}

// errnos maps the supported err= names. ECONNRESET doubles as the cut
// action's underlying error.
var errnos = map[string]error{
	"EIO":        syscall.EIO,
	"ENOSPC":     syscall.ENOSPC,
	"ECONNRESET": syscall.ECONNRESET,
	"EPIPE":      syscall.EPIPE,
	"ETIMEDOUT":  syscall.ETIMEDOUT,
}

// rule is one parsed injection rule with its firing state.
type rule struct {
	point  string
	action string // "err", "cut", "panic"
	errno  error  // err/cut payload

	every uint64  // fire on every Nth eligible hit (0 = probabilistic)
	prob  float64 // firing probability when every == 0
	times uint64  // max injections (0 = unlimited)
	after uint64  // hits to skip before the rule becomes eligible

	mu    sync.Mutex
	rng   *rand.Rand
	hits  uint64
	fired uint64
}

// fire decides whether this hit injects. Deterministic given the rule's seed:
// counter-based for every=, seeded-PRNG draws otherwise.
func (r *rule) fire() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hits++
	if r.hits <= r.after {
		return false
	}
	if r.times > 0 && r.fired >= r.times {
		return false
	}
	if r.every > 0 {
		if (r.hits-r.after)%r.every != 0 {
			return false
		}
	} else if r.prob < 1 && r.rng.Float64() >= r.prob {
		return false
	}
	r.fired++
	return true
}

// Injector is a parsed, armed fault specification. Injectors are immutable
// after Parse apart from their rules' firing state; one Injector is safe for
// concurrent use from any number of goroutines.
type Injector struct {
	spec    string
	seed    int64
	byPoint map[string][]*rule
}

// Spec returns the specification string the injector was parsed from.
func (in *Injector) Spec() string { return in.spec }

// Parse compiles a fault specification. The seed makes probabilistic rules
// reproducible: the same (spec, seed) fires the same sequence. An empty spec
// yields a nil Injector (nothing armed), not an error.
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{spec: spec, seed: seed, byPoint: map[string][]*rule{}}
	ruleIdx := 0
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		r, err := parseRule(raw, seed, ruleIdx)
		if err != nil {
			return nil, err
		}
		in.byPoint[r.point] = append(in.byPoint[r.point], r)
		ruleIdx++
	}
	if len(in.byPoint) == 0 {
		return nil, nil
	}
	return in, nil
}

// parseRule compiles one point:action[:modifier]... clause.
func parseRule(raw string, seed int64, idx int) (*rule, error) {
	parts := strings.Split(raw, ":")
	if len(parts) < 2 {
		return nil, fmt.Errorf("faultinject: rule %q needs point:action", raw)
	}
	point := strings.TrimSpace(parts[0])
	if _, ok := counts[point]; !ok {
		return nil, fmt.Errorf("faultinject: unknown injection point %q (want one of %s)",
			point, strings.Join(points, ", "))
	}
	// Each rule draws from its own PRNG, seeded from the global seed and the
	// rule's position, so adding a rule does not perturb the others' draws.
	r := &rule{
		point: point,
		prob:  1,
		rng:   rand.New(rand.NewSource(seed + int64(idx)*1_000_003)),
	}

	action := strings.TrimSpace(parts[1])
	name, value, hasValue := strings.Cut(action, "=")
	switch name {
	case "err":
		if !hasValue || value == "" {
			return nil, fmt.Errorf("faultinject: rule %q: err needs an errno (err=EIO)", raw)
		}
		errno, ok := errnos[strings.ToUpper(value)]
		if !ok {
			return nil, fmt.Errorf("faultinject: rule %q: unknown errno %q", raw, value)
		}
		r.action, r.errno = "err", errno
	case "cut":
		r.action, r.errno = "cut", syscall.ECONNRESET
		if hasValue {
			p, err := parseProb(value)
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: %w", raw, err)
			}
			r.prob = p
		}
	case "panic":
		r.action = "panic"
		if hasValue {
			p, err := parseProb(value)
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: %w", raw, err)
			}
			r.prob = p
		}
	default:
		return nil, fmt.Errorf("faultinject: rule %q: unknown action %q (want err=, cut, panic)", raw, name)
	}

	for _, mod := range parts[2:] {
		mod = strings.TrimSpace(mod)
		name, value, _ := strings.Cut(mod, "=")
		switch name {
		case "every":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("faultinject: rule %q: every wants a positive integer", raw)
			}
			r.every = n
		case "p":
			p, err := parseProb(value)
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: %w", raw, err)
			}
			r.prob = p
		case "times":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("faultinject: rule %q: times wants a positive integer", raw)
			}
			r.times = n
		case "after":
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: after wants a non-negative integer", raw)
			}
			r.after = n
		default:
			return nil, fmt.Errorf("faultinject: rule %q: unknown modifier %q (want every=, p=, times=, after=)", raw, name)
		}
	}
	return r, nil
}

// parseProb parses a probability in [0, 1].
func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %q out of range [0, 1]", s)
	}
	return p, nil
}

// active is the armed process-global injector; nil means every hook is a
// no-op after one atomic load.
var active atomic.Pointer[Injector]

// SetActive arms inj process-wide (nil disarms). Typically called once at
// startup from the -fault-spec flag; tests arm and disarm freely.
func SetActive(inj *Injector) {
	active.Store(inj)
}

// Enabled reports whether any injector is armed.
func Enabled() bool {
	return active.Load() != nil
}

// Fire evaluates the armed injector at an injection point. It returns nil in
// the overwhelmingly common unarmed case (one atomic load), an *InjectedError
// when an err/cut rule fires, and panics with *InjectedPanic when a panic
// rule fires. The first firing rule for a point wins.
func Fire(point string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.Fire(point)
}

// Fire is the instance form of the package-level Fire.
func (in *Injector) Fire(point string) error {
	if in == nil {
		return nil
	}
	rules, ok := in.byPoint[point]
	if !ok {
		return nil
	}
	for _, r := range rules {
		if !r.fire() {
			continue
		}
		counts[point].Add(1)
		if r.action == "panic" {
			panic(&InjectedPanic{Point: point})
		}
		return &InjectedError{Point: point, Action: r.action, Err: r.errno}
	}
	return nil
}
