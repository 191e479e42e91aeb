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

	"repro/internal/accounting"
	"repro/internal/config"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// apiVersion is the version tag of the request/response layer. Requests may
// leave their api_version empty (it defaults to this) or must match it.
const apiVersion = "v1"

// requestError marks a client-side problem with a service request; the HTTP
// layer maps it to 400 Bad Request. When the problem originates in a typed
// domain error (for example workload.UnknownScenarioError), Err carries it so
// errors.As still reaches the cause through the service layer.
type requestError struct {
	Msg string
	Err error
}

func (e *requestError) Error() string { return "gdp: bad request: " + e.Msg }

// Unwrap exposes the wrapped domain error.
func (e *requestError) Unwrap() error { return e.Err }

func badRequestf(format string, args ...any) error {
	return &requestError{Msg: fmt.Sprintf(format, args...)}
}

// badRequestErr wraps a typed domain error as a 400 while keeping it
// reachable with errors.As.
func badRequestErr(err error) error {
	return &requestError{Msg: err.Error(), Err: err}
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
	// maxServicePRBEntries bounds the Pending Request Buffer, which GDP
	// allocates whole for every core: 4096 is the private reference's
	// "unbounded" size and 4x Figure 7e's largest PRB.
	maxServicePRBEntries = 4096
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

// Estimate answers one estimation query: it resolves the workload, attaches
// the requested accounting technique, streams the shared-mode simulation
// (intervals are reduced on the fly, never accumulated) and reports the
// instruction-weighted private-performance estimates per core. Client-side
// problems return an error that Server answers with 400 Bad Request;
// cancellation of ctx aborts the simulation at the next interval boundary.
func (e *Engine) Estimate(ctx context.Context, req *EstimateRequest) (*EstimateResponse, error) {
	if req == nil {
		return nil, badRequestf("empty request")
	}
	wl, err := req.validate()
	if err != nil {
		return nil, err
	}
	cores := wl.Cores()
	technique := req.Technique
	if technique == "" {
		technique = "GDP-O"
	}
	prb := req.PRBEntries
	if prb == 0 {
		prb = 32
	}
	acct, err := accounting.New(technique, cores, prb, 5000)
	if err != nil {
		return nil, badRequestErr(err)
	}

	instructions := req.InstructionsPerCore
	if instructions == 0 {
		instructions = e.scale.InstructionsPerCore
	}
	interval := req.IntervalCycles
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
		Workload:            wl,
		InstructionsPerCore: instructions,
		IntervalCycles:      interval,
		Seed:                req.Seed,
		Accountants:         []Accountant{acct},
		MaxCycles:           req.MaxCycles,
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
			sums[rec.Core].weighted += float64(est.PrivateCPI * w) // rounded, not fused (make fma-check)
			sums[rec.Core].weight += w
			sums[rec.Core].count++
			return nil
		},
	})
	if err != nil {
		return nil, err
	}

	out := &EstimateResponse{
		APIVersion: apiVersion,
		Workload:   wl.ID,
		Technique:  technique,
		Cycles:     res.Cycles,
	}
	for core := 0; core < cores; core++ {
		ce := CoreEstimate{
			Core:      core,
			Benchmark: wl.Benchmarks[core].Name,
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

// validate checks the request against the service work-size limits and
// resolves its workload. It runs no simulation, which makes it the fuzzable
// front half of Engine.Estimate.
func (r *EstimateRequest) validate() (Workload, error) {
	if r.APIVersion != "" && r.APIVersion != apiVersion {
		return Workload{}, badRequestf("unsupported api_version %q (this server speaks %q)", r.APIVersion, apiVersion)
	}
	if err := checkWorkSize(r.InstructionsPerCore, r.IntervalCycles, 0); err != nil {
		return Workload{}, err
	}
	wl, err := r.resolveWorkload()
	if err != nil {
		return Workload{}, err
	}
	if r.PRBEntries < 0 || r.PRBEntries > maxServicePRBEntries {
		return Workload{}, badRequestf("prb_entries = %d out of range (1..%d)", r.PRBEntries, maxServicePRBEntries)
	}
	return wl, nil
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
	if req.APIVersion != "" && req.APIVersion != apiVersion {
		return SweepOptions{}, badRequestf("unsupported api_version %q (this server speaks %q)", req.APIVersion, apiVersion)
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
	cells := opts.CellCount()
	if cells > maxSweepCells {
		return SweepOptions{}, badRequestf("grid of %d cells exceeds the %d-cell limit", cells, maxSweepCells)
	}
	// Every cell passes the check a worker applies to a dispatched one: an
	// out-of-range core count or PRB size and an unknown technique, policy or
	// scenario is the client's error, rejected here before any cell runs.
	partitioning := false
	for _, c := range experiments.EnumerateSweepCells(opts) {
		if err := validateCell(c); err != nil {
			return SweepOptions{}, err
		}
		partitioning = partitioning || c.Kind == experiments.CellKindPartitioning
	}
	// A scenario-only grid has no partitioning cell to carry its policies;
	// their names are still checked.
	if !partitioning {
		for _, name := range opts.Policies {
			if !slices.Contains(experiments.PolicyNames, name) {
				return SweepOptions{}, badRequestf("unknown policy %q (want one of %v)", name, experiments.PolicyNames)
			}
		}
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
	return &SweepResponse{APIVersion: apiVersion, Cells: res.Cells, Rows: res.Rows}, nil
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
	// runCell executes one dispatched cell: experiments.Cell.Run, or a
	// faulting stand-in a test sets before the server starts serving.
	runCell func(experiments.Cell, context.Context, experiments.CellConfig) ([]SweepRow, error)
	// estimate runs one /v1/estimate simulation: Engine.Estimate, or a
	// faulting stand-in a test sets before the server starts serving.
	estimate func(context.Context, *EstimateRequest) (*EstimateResponse, error)
	// inflight shares one simulation among concurrent identical estimate
	// requests.
	inflight runner.Inflight[*EstimateResponse]
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
	// joined counts estimate requests that shared another's simulation.
	joined *telemetry.Counter
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
		joined: r.Counter("gdpsim_coalesce_joined_total",
			"Estimate requests that shared another identical request's simulation."),
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
// record (method, endpoint, status, latency and, for estimate and sweep
// requests, spec_key: 12 hex digits of the request body's content hash, which
// for an estimate is the key identical in-flight requests share; neither names
// a result-cache entry); server lifecycle events land on the same logger.
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
		runCell:      experiments.Cell.Run,
		estimate:     engine.Estimate,
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
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("/v1/estimate", s.instrument("/v1/estimate", handleJSON(s, s.sharedEstimate)))
	s.mux.HandleFunc("/v1/sweep", s.instrument("/v1/sweep", handleJSON(s, s.sweep)))
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
// (endpoint, code) request count and one structured log record. The
// bookkeeping also runs when the handler panics, counting the request as a
// 500; the panic goes on to net/http, which recovers it.
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
		returned := false
		defer func() {
			elapsed := time.Since(start)
			inFlight.Dec()
			if !returned {
				rec.status = http.StatusInternalServerError
			}
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
		}()
		h(rec, r)
		returned = true
	}
}

// annotateSpecKey hashes the decoded request body, records the key's
// 12-character prefix for the access log and returns the whole key ("" when
// the body cannot be hashed), so a caller that needs the key hashes once.
func annotateSpecKey(ctx context.Context, spec any) string {
	key, err := runner.SpecKey(spec)
	if err != nil {
		return ""
	}
	if info, ok := ctx.Value(requestInfoKey{}).(*requestInfo); ok {
		info.specKey = key[:12]
	}
	return key
}

// handleScenarios lists the scenario registry. The listing is static and
// cheap, so it bypasses the concurrency limit like healthz.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "scenarios is GET-only")
		return
	}
	resp := ScenariosResponse{APIVersion: apiVersion}
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
		"api_version":  apiVersion,
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
// 503 (shed), 499 (client gone), 400 (request errors) or 500. A 500's cause
// (an I/O failure, a recovered panic's value) is internal: it goes to the
// server log and the client gets a generic message.
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
		var reqErr *requestError
		if errors.As(err, &reqErr) {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.logger.Error("request failed", slog.String("error", err.Error()))
		writeError(w, http.StatusInternalServerError, "internal error")
	}
}

// handleJSON adapts call to a POST JSON endpoint: it decodes the body,
// records the body's spec key for the access log and hands the key to call,
// then maps call's outcome to the response. call takes its own concurrency
// slot (see limited).
func handleJSON[Req any, Resp any](s *Server, call func(context.Context, *Req, string) (*Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		req := new(Req)
		body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
		if err := json.NewDecoder(body).Decode(req); err != nil {
			writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
			return
		}
		key := annotateSpecKey(r.Context(), req)
		resp, err := call(r.Context(), req, key)
		s.writeCallResult(w, resp, err)
	}
}

// limited runs call under one concurrency slot, or fails with errServerBusy
// when every slot is held.
func limited[Req any, Resp any](s *Server, ctx context.Context, req *Req, call func(context.Context, *Req) (*Resp, error)) (*Resp, error) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		return nil, errServerBusy
	}
	return call(ctx, req)
}

// sweep answers POST /v1/sweep under one concurrency slot.
func (s *Server) sweep(ctx context.Context, req *SweepRequest, _ string) (*SweepResponse, error) {
	return limited(s, ctx, req, s.engine.EvaluateSweep)
}

// sharedEstimate answers POST /v1/estimate. Identical concurrent requests
// (same spec key) share one simulation: the first runs it and every identical
// request that arrives before it finishes waits for its response, so none
// waits longer than the simulation it shares. Only the simulating request
// takes a concurrency slot: a burst of identical requests costs one slot and
// is shed only when the engine is saturated with distinct work. If the
// simulating request's client disconnects, its run is aborted and a waiting
// request reruns the simulation itself.
func (s *Server) sharedEstimate(ctx context.Context, req *EstimateRequest, key string) (*EstimateResponse, error) {
	resp, joined, err := s.inflight.Do(ctx, key, func() (*EstimateResponse, error) {
		return limited(s, ctx, req, s.estimate)
	})
	if joined {
		s.metrics.joined.Inc()
	}
	return resp, err
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
