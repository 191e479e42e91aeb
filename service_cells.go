package gdp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// errCellPanic marks a cell whose execution panicked. The panic is contained
// to that one cell: the worker process survives, and the dispatcher is told
// the cell is retryable (a panic on this worker says nothing about the cell —
// a corrupted cache shard or a worker-local bug can produce one, and the cell
// may well succeed elsewhere).
var errCellPanic = errors.New("cell execution panicked")

// Worker wire protocol (the server side of internal/dispatch), one request
// per batch:
//
//	POST /v1/cells  dispatch.CellsRequest -> NDJSON dispatch.CellResult lines
//
// The batch executes on the worker's cell pool while the response streams one
// line per cell in completion order and the terminal done line last. A
// dispatcher whose stream is cut re-posts the unfinished cells as a new batch:
// each cell runs through the engine's two-layer cache under its spec key, so a
// repeated cell (from any dispatcher, or from this worker's own local sweeps)
// is answered without re-simulation or joins the execution still in flight.

const (
	// maxActiveCellBatches bounds concurrently executing batches; excess
	// POSTs shed with 503 like the JSON endpoints.
	maxActiveCellBatches = 8
	// cellBatchMaxAge hard-caps a batch's lifetime, execution included.
	cellBatchMaxAge = 30 * time.Minute
)

// dispatchServerMetrics instruments the worker side of the protocol.
type dispatchServerMetrics struct {
	servedCells   *telemetry.CounterVec
	servedBatches *telemetry.Counter
	activeBatches *telemetry.Gauge
}

func newDispatchServerMetrics(r *telemetry.Registry) *dispatchServerMetrics {
	return &dispatchServerMetrics{
		servedCells: r.CounterVec("gdpsim_dispatch_served_cells_total",
			"Cells executed for remote dispatchers, by outcome.", "outcome"),
		servedBatches: r.Counter("gdpsim_dispatch_served_batches_total",
			"Cell batches completed for remote dispatchers."),
		activeBatches: r.Gauge("gdpsim_dispatch_active_batches",
			"Cell batches currently executing."),
	}
}

// validateCell applies the service work-size limits on top of the cell's own
// structural validation: a worker bounds how much simulation one dispatched
// cell may demand exactly like a direct request.
func validateCell(c experiments.Cell) error {
	if err := c.Validate(); err != nil {
		return badRequestErr(err)
	}
	if c.Cores > maxServiceCores {
		return badRequestf("cell core count %d out of range (1..%d)", c.Cores, maxServiceCores)
	}
	if err := checkWorkSize(c.InstructionsPerCore, c.IntervalCycles, c.Workloads); err != nil {
		return err
	}
	if c.PRB > maxServicePRBEntries {
		return badRequestf("cell prb size %d out of range (1..%d)", c.PRB, maxServicePRBEntries)
	}
	return nil
}

// handleCellsPost accepts one batch of cells, starts executing it and streams
// the results on the same response.
func (s *Server) handleCellsPost(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req dispatch.CellsRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if req.APIVersion != dispatch.ProtocolVersion {
		writeError(w, http.StatusBadRequest,
			"unsupported api_version \""+req.APIVersion+"\" (this worker speaks \""+dispatch.ProtocolVersion+"\")")
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Cells) > maxSweepCells {
		writeError(w, http.StatusBadRequest, "batch exceeds the cell limit")
		return
	}
	for _, env := range req.Cells {
		if env.Index < 0 {
			writeError(w, http.StatusBadRequest, "negative cell index")
			return
		}
		if err := validateCell(env.Cell); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	select {
	case s.batchSem <- struct{}{}:
	default:
		s.metrics.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "batch limit reached")
		return
	}
	s.dispatchSrv.activeBatches.Inc()
	// Buffered for the whole batch and its done line: cells never block on a
	// reader that went away, so the batch keeps executing into the cache
	// after a cut stream.
	results := make(chan dispatch.CellResult, len(req.Cells)+1)
	go s.runCellBatch(req.Cells, results)
	if err := streamCellResults(r.Context(), w, results); err != nil {
		s.logger.Warn("cell stream cut; the batch keeps executing", "err", err)
	}
}

// streamCellResults writes the batch's result lines as they arrive, flushing
// each, and returns after the done line, on the first write or flush error,
// or when ctx ends (the client went away).
func streamCellResults(ctx context.Context, w http.ResponseWriter, results <-chan dispatch.CellResult) error {
	// The dispatcher bounds its wait for the response headers, so they go out
	// before the first cell finishes.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := http.NewResponseController(w).Flush
	if err := flush(); err != nil {
		return err
	}
	for {
		select {
		case res := <-results:
			line, err := json.Marshal(res)
			if err != nil {
				line, _ = json.Marshal(dispatch.CellResult{Index: res.Index, Error: err.Error()})
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return err
			}
			if err := flush(); err != nil {
				return err
			}
			if res.Done {
				return nil
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// runCellBatch executes a batch on the server's cell pool, sending each result
// the moment its cell finishes (completion order — the dispatcher merges by
// index) and the done line after the last. It runs under the server-lifetime
// deadline, not the request's. Cells flow through the engine cache under their
// spec keys, so repeats are answered without simulation and local sweeps on
// this worker reuse dispatched results.
func (s *Server) runCellBatch(cells []dispatch.CellEnvelope, results chan<- dispatch.CellResult) {
	ctx, cancel := context.WithTimeout(context.Background(), cellBatchMaxAge)
	defer cancel()
	cache := s.engine.Cache()
	cfg := experiments.CellConfig{Cache: cache, Instr: s.engine.instr}
	var wg sync.WaitGroup
	for _, env := range cells {
		wg.Add(1)
		go func(env dispatch.CellEnvelope) {
			defer wg.Done()
			s.cellSem <- struct{}{}
			defer func() { <-s.cellSem }()
			res := dispatch.CellResult{Index: env.Index}
			key, err := runner.SpecKey(env.Cell.Spec())
			if err == nil {
				// The recover lives inside the memoized function: the cache
				// layer re-panics on a panicking compute, so this is the only
				// place a cell's panic can be converted into an error before
				// it unwinds the worker goroutine and kills the process.
				res.Rows, _, err = runner.MemoKeyedContext(ctx, cache, key, func() (rows []SweepRow, err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("%w: %v", errCellPanic, r)
						}
					}()
					return s.runCell(env.Cell, ctx, cfg)
				})
			}
			switch {
			case err == nil:
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				// The worker is giving up (shutdown, batch age cap), not the
				// cell itself: tell the dispatcher to reschedule elsewhere
				// instead of failing the whole sweep.
				res.Rows, res.Error, res.Retryable = nil, err.Error(), true
			case errors.Is(err, errCellPanic):
				res.Rows, res.Error, res.Retryable = nil, err.Error(), true
			default:
				res.Rows, res.Error = nil, err.Error()
			}
			outcome := "completed"
			switch {
			case errors.Is(err, errCellPanic):
				outcome = "panic"
			case res.Error != "":
				outcome = "failed"
			}
			s.dispatchSrv.servedCells.With(outcome).Inc()
			results <- res
		}(env)
	}
	wg.Wait()
	// Free the slot before the done line: a dispatcher that reads it may post
	// its next batch at once.
	<-s.batchSem
	s.dispatchSrv.activeBatches.Dec()
	s.dispatchSrv.servedBatches.Inc()
	results <- dispatch.CellResult{Done: true}
}
