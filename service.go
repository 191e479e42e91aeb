package gdp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// APIVersion is the version tag of the request/response layer. Requests may
// leave their api_version empty (it defaults to this) or must match it.
const APIVersion = "v1"

// RequestError marks a client-side problem with a service request; the HTTP
// layer maps it to 400 Bad Request. When the problem originates in a typed
// domain error (for example workload.UnknownScenarioError), Err carries it so
// errors.As still reaches the cause through the service layer.
type RequestError struct {
	Msg string
	Err error
}

func (e *RequestError) Error() string { return "gdp: bad request: " + e.Msg }

// Unwrap exposes the wrapped domain error.
func (e *RequestError) Unwrap() error { return e.Err }

func badRequestf(format string, args ...any) error {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// badRequestErr wraps a typed domain error as a 400 while keeping it
// reachable with errors.As.
func badRequestErr(err error) error {
	return &RequestError{Msg: err.Error(), Err: err}
}

// EstimateRequest asks for interference-free performance estimates of one
// multi-programmed workload: the workload runs in shared mode with the chosen
// accounting technique attached, and the response reports the per-core
// estimates the technique produced at runtime (no private-mode reference runs
// are needed — that is the point of the paper).
//
// The workload comes from exactly one of three descriptions: Benchmarks
// names one benchmark per core explicitly, Scenario selects a named scenario
// from the registry (see GET /v1/scenarios), or Cores+Mix generate a workload
// (Seed disambiguates repeated generations).
type EstimateRequest struct {
	APIVersion string `json:"api_version,omitempty"`
	// Cores is the CMP size (default 4; ignored when Benchmarks is set).
	Cores int `json:"cores,omitempty"`
	// Mix is the workload category: H, M, L, HHML, HMML or HMLL (default H).
	Mix string `json:"mix,omitempty"`
	// Scenario selects a named scenario workload instead of a mix (mutually
	// exclusive with Benchmarks and Mix).
	Scenario string `json:"scenario,omitempty"`
	// Benchmarks optionally lists one benchmark name per core.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Technique is the accounting technique: GDP, GDP-O, ITCA, PTCA or ASM
	// (default GDP-O).
	Technique string `json:"technique,omitempty"`
	// PRBEntries sizes the GDP/GDP-O Pending Request Buffer (default 32).
	PRBEntries int `json:"prb_entries,omitempty"`
	// InstructionsPerCore, IntervalCycles and Seed mirror SimOptions; zero
	// values select the engine scale's defaults.
	InstructionsPerCore uint64 `json:"instructions_per_core,omitempty"`
	IntervalCycles      uint64 `json:"interval_cycles,omitempty"`
	Seed                int64  `json:"seed,omitempty"`
	// MaxCycles bounds the simulation (0 = derived default).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// CoreEstimate is one core's estimate in an EstimateResponse. The estimated
// private CPI is the instruction-weighted mean of the per-interval estimates.
type CoreEstimate struct {
	Core                int     `json:"core"`
	Benchmark           string  `json:"benchmark"`
	SharedCPI           float64 `json:"shared_cpi"`
	SharedIPC           float64 `json:"shared_ipc"`
	EstimatedPrivateCPI float64 `json:"estimated_private_cpi"`
	EstimatedPrivateIPC float64 `json:"estimated_private_ipc"`
	// EstimatedSlowdown is shared CPI over estimated private CPI (>= 1 when
	// the technique attributes any slowdown to interference).
	EstimatedSlowdown float64 `json:"estimated_slowdown"`
	// Intervals counts the measurement intervals that contributed.
	Intervals int `json:"intervals"`
}

// EstimateResponse is the outcome of one estimation query.
type EstimateResponse struct {
	APIVersion string         `json:"api_version"`
	Workload   string         `json:"workload"`
	Technique  string         `json:"technique"`
	Cycles     uint64         `json:"cycles"`
	Cores      []CoreEstimate `json:"cores"`
}

// Work-size limits: a shared service must bound how much simulation one
// request can demand, or a few oversized requests occupy every concurrency
// slot indefinitely. Out-of-range requests get 400, not a truncated run.
const (
	// maxServiceCores bounds a single estimate request's CMP size.
	maxServiceCores = 64
	// maxServiceInstructions bounds the per-core instruction sample of one
	// request (the paper-like scale uses 30k; 10M is minutes of CPU).
	maxServiceInstructions = 10_000_000
	// minServiceIntervalCycles keeps the per-interval accounting work
	// amortized over a sensible window.
	minServiceIntervalCycles = 100
	// maxServiceWorkloads bounds the workload population of one sweep cell.
	maxServiceWorkloads = 64
	// maxServicePRBEntries bounds the Pending Request Buffer size.
	maxServicePRBEntries = 1 << 20
)

// checkWorkSize validates the shared simulation-size fields.
func checkWorkSize(instructions, interval uint64, workloads int) error {
	if instructions > maxServiceInstructions {
		return badRequestf("instructions_per_core = %d exceeds the %d limit", instructions, maxServiceInstructions)
	}
	if interval != 0 && interval < minServiceIntervalCycles {
		return badRequestf("interval_cycles = %d below the %d minimum", interval, minServiceIntervalCycles)
	}
	if workloads < 0 || workloads > maxServiceWorkloads {
		return badRequestf("workloads = %d out of range (0..%d)", workloads, maxServiceWorkloads)
	}
	return nil
}

// resolveWorkload turns the request's workload description into a Workload.
func (r *EstimateRequest) resolveWorkload() (Workload, error) {
	if r.Scenario != "" {
		if len(r.Benchmarks) > 0 {
			return Workload{}, badRequestf("scenario and benchmarks are mutually exclusive")
		}
		if r.Mix != "" {
			return Workload{}, badRequestf("scenario and mix are mutually exclusive")
		}
	}
	if len(r.Benchmarks) > 0 {
		if len(r.Benchmarks) > maxServiceCores {
			return Workload{}, badRequestf("%d benchmarks exceeds the %d-core limit", len(r.Benchmarks), maxServiceCores)
		}
		wl := Workload{ID: "request"}
		for _, name := range r.Benchmarks {
			b, err := workload.ByName(name)
			if err != nil {
				return Workload{}, badRequestf("%v", err)
			}
			wl.Benchmarks = append(wl.Benchmarks, b)
		}
		return wl, nil
	}
	cores := r.Cores
	if cores == 0 {
		cores = 4
	}
	if cores < 0 || cores > maxServiceCores {
		return Workload{}, badRequestf("cores = %d out of range (1..%d)", cores, maxServiceCores)
	}
	if r.Scenario != "" {
		sc, err := workload.ScenarioByName(r.Scenario)
		if err != nil {
			return Workload{}, badRequestErr(err)
		}
		wl, err := sc.Workload(cores)
		if err != nil {
			return Workload{}, badRequestf("%v", err)
		}
		return wl, nil
	}
	mixName := r.Mix
	if mixName == "" {
		mixName = "H"
	}
	mixList, err := experiments.ParseMixList(mixName)
	if err != nil || len(mixList) != 1 {
		return Workload{}, badRequestf("unknown mix %q (want H, M, L, HHML, HMML or HMLL)", r.Mix)
	}
	ws, err := workload.Generate(workload.GenerateOptions{
		Cores: cores, Mix: mixList[0], Count: 1, Seed: r.Seed,
	})
	if err != nil {
		return Workload{}, badRequestf("%v", err)
	}
	return ws[0], nil
}

// buildAccountant instantiates the requested accounting technique.
func buildAccountant(technique string, cores, prbEntries int) (Accountant, error) {
	switch technique {
	case "GDP":
		return NewGDP(cores, prbEntries)
	case "GDP-O":
		return NewGDPO(cores, prbEntries)
	case "ITCA":
		return NewITCA(cores)
	case "PTCA":
		return NewPTCA(cores)
	case "ASM":
		return NewASM(cores, 0)
	default:
		return nil, badRequestf("unknown technique %q (want GDP, GDP-O, ITCA, PTCA or ASM)", technique)
	}
}

// Estimate answers one estimation query: it resolves the workload, attaches
// the requested accounting technique, streams the shared-mode simulation
// (intervals are reduced on the fly, never accumulated) and reports the
// instruction-weighted private-performance estimates per core. Client-side
// problems return a *RequestError; cancellation of ctx aborts the simulation
// at the next interval boundary.
func (e *Engine) Estimate(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error) {
	if req == nil {
		return nil, badRequestf("empty request")
	}
	p, err := req.validate()
	if err != nil {
		return nil, err
	}
	return e.runEstimate(ctx, p)
}

// validate checks the request against the service work-size limits and
// resolves it into estimateParams. It runs no simulation, which makes it the
// fuzzable front half of Engine.Estimate.
func (r *EstimateRequest) validate() (estimateParams, error) {
	if r.APIVersion != "" && r.APIVersion != APIVersion {
		return estimateParams{}, badRequestf("unsupported api_version %q (this server speaks %q)", r.APIVersion, APIVersion)
	}
	if err := checkWorkSize(r.InstructionsPerCore, r.IntervalCycles, 0); err != nil {
		return estimateParams{}, err
	}
	// PRBEntries is range-checked in runEstimate (after defaulting), which
	// both entry points — Estimate and RunScenario — flow through.
	wl, err := r.resolveWorkload()
	if err != nil {
		return estimateParams{}, err
	}
	return estimateParams{
		workload:            wl,
		technique:           r.Technique,
		prbEntries:          r.PRBEntries,
		instructionsPerCore: r.InstructionsPerCore,
		intervalCycles:      r.IntervalCycles,
		seed:                r.Seed,
		maxCycles:           r.MaxCycles,
	}, nil
}

// estimateParams is the resolved form of one estimation run, shared by
// Engine.Estimate and Engine.RunScenario. Zero values of
// technique, prbEntries, instructionsPerCore and intervalCycles select the
// defaults (GDP-O, 32, and the Engine scale).
type estimateParams struct {
	workload            Workload
	technique           string
	prbEntries          int
	instructionsPerCore uint64
	intervalCycles      uint64
	seed                int64
	maxCycles           uint64
}

// runEstimate executes one estimation run and reduces its interval stream to
// per-core instruction-weighted estimates.
func (e *Engine) runEstimate(ctx context.Context, p estimateParams) (*EstimateResponse, error) {
	cores := p.workload.Cores()
	if cores == 0 {
		return nil, badRequestf("empty workload")
	}

	technique := p.technique
	if technique == "" {
		technique = "GDP-O"
	}
	prb := p.prbEntries
	if prb == 0 {
		prb = 32
	}
	if prb < 0 || prb > maxServicePRBEntries {
		return nil, badRequestf("prb_entries = %d out of range (1..%d)", prb, maxServicePRBEntries)
	}
	acct, err := buildAccountant(technique, cores, prb)
	if err != nil {
		return nil, err
	}

	instructions := p.instructionsPerCore
	if instructions == 0 {
		instructions = e.scale.InstructionsPerCore
	}
	interval := p.intervalCycles
	if interval == 0 {
		interval = e.scale.IntervalCycles
	}

	// Reduce the stream in place: per core, the instruction-weighted mean of
	// the interval estimates. DiscardIntervals keeps the run's memory O(cores)
	// regardless of its length.
	type acc struct {
		weighted float64
		weight   float64
		count    int
	}
	sums := make([]acc, cores)
	res, err := e.Run(ctx, SimOptions{
		Config:              config.ScaledConfig(cores),
		Workload:            p.workload,
		InstructionsPerCore: instructions,
		IntervalCycles:      interval,
		Seed:                p.seed,
		Accountants:         []Accountant{acct},
		MaxCycles:           p.maxCycles,
		DiscardIntervals:    true,
		OnInterval: func(rec IntervalRecord) error {
			if rec.Shared.Instructions == 0 {
				return nil
			}
			est, ok := rec.Estimates[technique]
			if !ok || est.PrivateCPI <= 0 {
				return nil
			}
			w := float64(rec.Shared.Instructions)
			sums[rec.Core].weighted += est.PrivateCPI * w
			sums[rec.Core].weight += w
			sums[rec.Core].count++
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	out := &EstimateResponse{
		APIVersion: APIVersion,
		Workload:   p.workload.ID,
		Technique:  technique,
		Cycles:     res.Cycles,
	}
	for core := 0; core < cores; core++ {
		ce := CoreEstimate{
			Core:      core,
			Benchmark: p.workload.Benchmarks[core].Name,
			SharedCPI: res.SampleStats[core].CPI(),
			Intervals: sums[core].count,
		}
		if ce.SharedCPI > 0 {
			ce.SharedIPC = 1 / ce.SharedCPI
		}
		if sums[core].weight > 0 {
			ce.EstimatedPrivateCPI = sums[core].weighted / sums[core].weight
			ce.EstimatedPrivateIPC = 1 / ce.EstimatedPrivateCPI
			ce.EstimatedSlowdown = ce.SharedCPI / ce.EstimatedPrivateCPI
		}
		out.Cores = append(out.Cores, ce)
	}
	return out, nil
}

// SweepRequest asks for a user-defined experiment grid; it is the JSON face
// of SweepOptions.
type SweepRequest struct {
	APIVersion string   `json:"api_version,omitempty"`
	CoreCounts []int    `json:"core_counts,omitempty"`
	Mixes      []string `json:"mixes,omitempty"`
	PRBSizes   []int    `json:"prb_sizes,omitempty"`
	Techniques []string `json:"techniques,omitempty"`
	Policies   []string `json:"policies,omitempty"`
	// Scenarios adds one accuracy cell per (cores, scenario, PRB size)
	// combination evaluating the named scenario workloads (see
	// GET /v1/scenarios).
	Scenarios           []string `json:"scenarios,omitempty"`
	Workloads           int      `json:"workloads,omitempty"`
	InstructionsPerCore uint64   `json:"instructions_per_core,omitempty"`
	IntervalCycles      uint64   `json:"interval_cycles,omitempty"`
	Seed                int64    `json:"seed,omitempty"`
	// Workers, when non-empty, shards the grid across the listed remote
	// `gdpsim serve` workers (base URLs; bare host:port implies http://)
	// instead of the local pool. Rows are byte-identical either way.
	Workers []string `json:"workers,omitempty"`
}

// maxServiceWorkers bounds the fleet size one sweep request may name.
const maxServiceWorkers = 64

// SweepResponse is the outcome of a sweep query.
type SweepResponse struct {
	APIVersion string     `json:"api_version"`
	Cells      int        `json:"cells"`
	Rows       []SweepRow `json:"rows"`
}

// maxSweepCells bounds the grid size one request may fan out.
const maxSweepCells = 512

// validate checks the request against the service work-size limits and
// resolves it into SweepOptions. It runs no simulation, which makes it the
// fuzzable front half of EvaluateSweep.
func (req *SweepRequest) validate() (SweepOptions, error) {
	if req.APIVersion != "" && req.APIVersion != APIVersion {
		return SweepOptions{}, badRequestf("unsupported api_version %q (this server speaks %q)", req.APIVersion, APIVersion)
	}
	opts := SweepOptions{
		CoreCounts:          req.CoreCounts,
		PRBSizes:            req.PRBSizes,
		Techniques:          req.Techniques,
		Policies:            req.Policies,
		Scenarios:           req.Scenarios,
		Workloads:           req.Workloads,
		InstructionsPerCore: req.InstructionsPerCore,
		IntervalCycles:      req.IntervalCycles,
		Seed:                req.Seed,
	}
	if err := checkWorkSize(req.InstructionsPerCore, req.IntervalCycles, req.Workloads); err != nil {
		return SweepOptions{}, err
	}
	for _, cores := range req.CoreCounts {
		if cores <= 0 || cores > maxServiceCores {
			return SweepOptions{}, badRequestf("core count %d out of range (1..%d)", cores, maxServiceCores)
		}
	}
	for _, prb := range req.PRBSizes {
		if prb <= 0 || prb > maxServicePRBEntries {
			return SweepOptions{}, badRequestf("prb size %d out of range (1..%d)", prb, maxServicePRBEntries)
		}
	}
	// An unknown technique, policy or scenario would otherwise be silently
	// skipped by the study drivers, yielding a 200 with empty rows.
	for _, name := range req.Techniques {
		if !slices.Contains(experiments.TechniqueNames, name) {
			return SweepOptions{}, badRequestf("unknown technique %q (want one of %v)", name, experiments.TechniqueNames)
		}
	}
	for _, name := range req.Policies {
		if !slices.Contains(experiments.PolicyNames, name) {
			return SweepOptions{}, badRequestf("unknown policy %q (want one of %v)", name, experiments.PolicyNames)
		}
	}
	for _, name := range req.Scenarios {
		if _, err := workload.ScenarioByName(name); err != nil {
			return SweepOptions{}, badRequestErr(err)
		}
	}
	if len(req.Workers) > maxServiceWorkers {
		return SweepOptions{}, badRequestf("%d workers exceeds the %d-worker limit", len(req.Workers), maxServiceWorkers)
	}
	if _, err := dispatch.ParseWorkers(req.Workers); err != nil {
		return SweepOptions{}, badRequestErr(err)
	}
	if len(req.Mixes) > 0 {
		mixes, err := experiments.ParseMixList(strings.Join(req.Mixes, ","))
		if err != nil {
			return SweepOptions{}, badRequestf("%v", err)
		}
		opts.Mixes = mixes
	}
	// Account for the grid defaults SweepOptions fills in (cores {4},
	// mixes {H, M, L} — only for grids without scenario cells — and PRB
	// sizes {32}) when sizing the request. mixN comes from the parsed
	// opts.Mixes, not len(req.Mixes): ParseMixList drops whitespace-only
	// entries, and a request whose mixes all parse away gets the 3-mix
	// default — counting the raw entries would undersize the grid.
	coreN, mixN, prbN := len(req.CoreCounts), len(opts.Mixes), len(req.PRBSizes)
	if coreN == 0 {
		coreN = 1
	}
	if mixN == 0 && len(req.Scenarios) == 0 {
		mixN = 3
	}
	if prbN == 0 {
		prbN = 1
	}
	cells := coreN * mixN * prbN
	if len(req.Policies) > 0 {
		cells += coreN * mixN
	}
	cells += coreN * len(req.Scenarios) * prbN
	if cells > maxSweepCells {
		return SweepOptions{}, badRequestf("grid of %d cells exceeds the %d-cell limit", cells, maxSweepCells)
	}
	return opts, nil
}

// EvaluateSweep answers one sweep query on the Engine's worker pool and
// shared cache.
func (e *Engine) EvaluateSweep(ctx context.Context, req *SweepRequest) (*SweepResponse, error) {
	if req == nil {
		return nil, badRequestf("empty request")
	}
	opts, err := req.validate()
	if err != nil {
		return nil, err
	}
	var res *SweepResult
	if len(req.Workers) > 0 {
		res, err = e.SweepWorkers(ctx, opts, req.Workers)
	} else {
		res, err = e.Sweep(ctx, opts)
	}
	if err != nil {
		return nil, err
	}
	return &SweepResponse{APIVersion: APIVersion, Cells: res.Cells, Rows: res.Rows}, nil
}

// ScenarioInfo is one row of a ScenariosResponse.
type ScenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Class       string `json:"class"`
}

// ScenariosResponse lists the named scenarios the service can run.
type ScenariosResponse struct {
	APIVersion string         `json:"api_version"`
	Scenarios  []ScenarioInfo `json:"scenarios"`
}

// Server exposes an Engine over HTTP/JSON:
//
//	POST /v1/estimate   EstimateRequest  -> EstimateResponse
//	POST /v1/sweep      SweepRequest     -> SweepResponse
//	GET  /v1/scenarios  ScenariosResponse (the named scenario registry)
//	GET  /healthz       liveness, build identity + cache statistics
//	GET  /metrics       Prometheus text exposition of the Engine's registry
//
// Error responses carry {"error": "..."} with status 400 (malformed or
// invalid request), 405 (wrong method), 503 (concurrent-request limit
// reached) or 500. A request whose client disappears mid-simulation is
// aborted at the next interval boundary via the request context.
//
// Every endpoint is instrumented: request counts by status code, latency
// histograms and in-flight gauges land in the Engine's metric registry under
// the gdpsim_http_* families, and each request emits one structured access
// log record (WithLogger installs the sink).
//
// Server is an http.Handler; wrap it in an http.Server for timeouts and
// graceful shutdown (see cmd/gdpsim's serve subcommand).
type Server struct {
	engine *Engine
	sem    chan struct{}
	mux    *http.ServeMux
	// maxBodyBytes bounds a request body; requests beyond it fail decoding.
	maxBodyBytes int64
	// logger receives one record per request plus lifecycle events; defaults
	// to a discard handler.
	logger *slog.Logger
	// pprofEnabled mounts net/http/pprof under /debug/pprof/.
	pprofEnabled bool
	metrics      *httpServerMetrics
	// batchSem, cellSem and dispatchSrv form the worker side of the
	// distributed dispatch protocol (see service_cells.go).
	batchSem    chan struct{}
	cellSem     chan struct{}
	dispatchSrv *dispatchServerMetrics
	// coalesce merges concurrent identical estimate requests into one
	// simulation (see service_coalesce.go).
	coalesce *coalescer
}

// httpServerMetrics holds the HTTP-layer metric handles, resolved once at
// server construction so the per-request path performs no registry lookups
// beyond the label resolution of its own series.
type httpServerMetrics struct {
	requests   *telemetry.CounterVec
	latency    *telemetry.HistogramVec
	inFlight   *telemetry.GaugeVec
	shed       *telemetry.Counter
	clientGone *telemetry.Counter
}

// newHTTPServerMetrics registers the HTTP metric families on r.
func newHTTPServerMetrics(r *telemetry.Registry) *httpServerMetrics {
	return &httpServerMetrics{
		requests: r.CounterVec("gdpsim_http_requests_total",
			"HTTP requests by endpoint and status code.", "endpoint", "code"),
		latency: r.HistogramVec("gdpsim_http_request_seconds",
			"HTTP request latency in seconds, by endpoint.", nil, "endpoint"),
		inFlight: r.GaugeVec("gdpsim_http_in_flight_requests",
			"HTTP requests currently being served, by endpoint.", "endpoint"),
		shed: r.Counter("gdpsim_http_shed_total",
			"Requests rejected with 503 because the concurrent-request limit was reached."),
		clientGone: r.Counter("gdpsim_http_client_gone_total",
			"Requests whose client disappeared mid-simulation (status 499)."),
	}
}

// ServerOption configures a Server.
type ServerOption func(*Server) error

// WithMaxConcurrent bounds how many estimation/sweep requests run
// simultaneously (default 2×NumCPU as reported by the runtime; healthz is
// never limited). Excess requests receive 503 Service Unavailable.
func WithMaxConcurrent(n int) ServerOption {
	return func(s *Server) error {
		if n < 1 {
			return fmt.Errorf("gdp: WithMaxConcurrent(%d): need at least 1", n)
		}
		s.sem = make(chan struct{}, n)
		return nil
	}
}

// WithLogger installs a structured logger. Every request emits one access
// record (method, endpoint, status, latency and — for estimation/sweep
// requests — the 12-character spec-key prefix identifying the request in the
// result cache); server lifecycle events land on the same logger.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) error {
		if l == nil {
			return fmt.Errorf("gdp: WithLogger(nil)")
		}
		s.logger = l
		return nil
	}
}

// WithPprof mounts net/http/pprof under /debug/pprof/. Off by default: the
// profile endpoints expose process internals and belong behind an operator
// flag, not on every deployment.
func WithPprof() ServerOption {
	return func(s *Server) error {
		s.pprofEnabled = true
		return nil
	}
}

// NewServer wraps an Engine built by NewEngine as an HTTP handler.
func NewServer(engine *Engine, opts ...ServerOption) (*Server, error) {
	if engine == nil {
		return nil, errors.New("gdp: NewServer(nil): build the engine with NewEngine")
	}
	s := &Server{
		engine:       engine,
		maxBodyBytes: 1 << 20,
		logger:       slog.New(slog.DiscardHandler),
		metrics:      newHTTPServerMetrics(engine.registry),
		batchSem:     make(chan struct{}, maxActiveCellBatches),
		dispatchSrv:  newDispatchServerMetrics(engine.registry),
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.sem == nil {
		s.sem = make(chan struct{}, 2*defaultConcurrency())
	}
	// Dispatched cells fan out on their own semaphore sized like the engine's
	// worker pool: a batch occupies one request slot while its cells use the
	// machine's cores.
	cellJobs := engine.jobs
	if cellJobs <= 0 {
		cellJobs = defaultConcurrency()
	}
	s.cellSem = make(chan struct{}, cellJobs)
	s.coalesce = newCoalescer(engine.Estimate, newCoalesceMetrics(engine.registry))
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("/v1/estimate", s.instrument("/v1/estimate", s.handleEstimate))
	s.mux.HandleFunc("/v1/sweep", s.instrument("/v1/sweep", handleJSON(s, s.engine.EvaluateSweep)))
	s.mux.HandleFunc("/v1/scenarios", s.instrument("/v1/scenarios", s.handleScenarios))
	s.mux.HandleFunc("/v1/cells", s.instrument("/v1/cells", s.handleCellsPost))
	if s.pprofEnabled {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// statusRecorder captures the status code a handler writes so the access log
// and the request counter can label by it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the real writer's Flush.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// requestInfo carries per-request annotations from the handler back to the
// instrument wrapper (currently the result-cache spec-key prefix, set by
// handleJSON once the body has decoded).
type requestInfo struct {
	specKey string
}

type requestInfoKey struct{}

// instrument wraps a handler with the per-endpoint metrics and the access
// log: an in-flight gauge around the call, then a latency observation, a
// (endpoint, code) request count and one structured log record.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.metrics.requests
	latency := s.metrics.latency.With(endpoint)
	inFlight := s.metrics.inFlight.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		info := &requestInfo{}
		r = r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, info))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		inFlight.Inc()
		start := time.Now()
		h(rec, r)
		elapsed := time.Since(start)
		inFlight.Dec()
		latency.Observe(elapsed.Seconds())
		requests.With(endpoint, strconv.Itoa(rec.status)).Inc()
		attrs := make([]slog.Attr, 0, 5)
		attrs = append(attrs,
			slog.String("method", r.Method),
			slog.String("endpoint", endpoint),
			slog.Int("status", rec.status),
			slog.Duration("latency", elapsed),
		)
		if info.specKey != "" {
			attrs = append(attrs, slog.String("spec_key", info.specKey))
		}
		s.logger.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
	}
}

// annotateSpecKey records the request's cache spec-key prefix for the access
// log, letting operators correlate a slow request with the cache entry (and
// the bench reports) it corresponds to.
func annotateSpecKey(ctx context.Context, spec any) {
	info, ok := ctx.Value(requestInfoKey{}).(*requestInfo)
	if !ok {
		return
	}
	if key, err := runner.SpecKey(spec); err == nil && len(key) >= 12 {
		info.specKey = key[:12]
	}
}

// handleScenarios lists the scenario registry. The listing is static and
// cheap, so it bypasses the concurrency limit like healthz.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "scenarios is GET-only")
		return
	}
	resp := ScenariosResponse{APIVersion: APIVersion}
	for _, sc := range s.engine.Scenarios() {
		resp.Scenarios = append(resp.Scenarios, ScenarioInfo{
			Name:        sc.Name,
			Description: sc.Description,
			Class:       sc.Class.String(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleHealthz reports liveness, build identity and cache statistics. The
// flat cache_hits/cache_misses fields predate the per-layer split and stay
// for compatibility; "cache" carries the full breakdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "healthz is GET-only")
		return
	}
	stats := s.engine.Cache().DetailedStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"api_version":  APIVersion,
		"git_revision": gitRevision(),
		"cache_hits":   stats.MemoryHits + stats.DiskHits + stats.InflightJoins,
		"cache_misses": stats.Misses,
		"cache":        stats,
	})
}

// gitRevision returns the VCS revision stamped into the binary by the Go
// toolchain, suffixed "+dirty" for a modified tree (empty when the build
// carries no VCS metadata, e.g. `go test`).
func gitRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev string
	var dirty bool
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}

// handleMetrics exposes the Engine's registry in the Prometheus text format
// (version 0.0.4). A scrape is a cheap read of atomic counters, so like
// healthz it bypasses the concurrency limit — a saturated worker pool must
// not blind the monitoring that would detect the saturation.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "metrics is GET-only")
		return
	}
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = s.engine.MetricsRegistry().WritePrometheus(w)
}

// statusClientClosedRequest is nginx's conventional status for a client that
// went away before the response; it only ever reaches logs and tests, never
// a real client.
const statusClientClosedRequest = 499

// errServerBusy reports that the concurrent-request limit was reached; the
// HTTP layer maps it to 503 and counts the shed.
var errServerBusy = errors.New("gdp: concurrent-request limit reached")

// writeCallResult maps an Engine call's outcome to the HTTP response: 200,
// 503 (shed), 499 (client gone), 400 (request errors) or 500.
func (s *Server) writeCallResult(w http.ResponseWriter, resp any, err error) {
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, errServerBusy):
		s.metrics.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "concurrent-request limit reached")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away (or timed out) mid-simulation; the run was
		// aborted at an interval boundary. Nobody is listening for the
		// body, so only a status for the access log.
		s.metrics.clientGone.Inc()
		w.WriteHeader(statusClientClosedRequest)
	default:
		var reqErr *RequestError
		if errors.As(err, &reqErr) {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleJSON adapts an Engine method to a POST JSON endpoint with the
// server's concurrency limit and error mapping.
func handleJSON[Req any, Resp any](s *Server, call func(context.Context, *Req) (*Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.writeCallResult(w, nil, errServerBusy)
			return
		}
		req := new(Req)
		body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
		if err := json.NewDecoder(body).Decode(req); err != nil {
			writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
			return
		}
		annotateSpecKey(r.Context(), req)
		resp, err := call(r.Context(), req)
		s.writeCallResult(w, resp, err)
	}
}

// handleEstimate is the coalescing POST /v1/estimate endpoint. Unlike
// handleJSON it does not hold a concurrency slot for the whole request:
// the coalescer charges one slot per *simulation* (the group leader), so a
// burst of identical requests costs one slot instead of shedding at the
// limiter before it can coalesce. Joining an in-flight group is free.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	req := new(EstimateRequest)
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	if err := json.NewDecoder(body).Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	annotateSpecKey(r.Context(), req)
	resp, err := s.coalescedEstimate(r.Context(), req)
	s.writeCallResult(w, resp, err)
}

// defaultConcurrency is the machine-derived concurrent-request default.
func defaultConcurrency() int {
	if n := runtime.NumCPU(); n > 1 {
		return n
	}
	return 1
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
