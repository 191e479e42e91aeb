package gdp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/experiments"
)

// FuzzEstimateRequestJSON fuzzes the v1 estimate request decode-and-validate
// path: any bytes that unmarshal into an EstimateRequest must either resolve
// to a workload or be rejected with a classified *requestError — never panic
// and never leak an unclassified error for a client-side problem. No
// simulation runs; this is exactly the pre-simulation half of the HTTP
// handler.
func FuzzEstimateRequestJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"cores": 4, "mix": "H"}`))
	f.Add([]byte(`{"benchmarks": ["omnetpp", "lbm"], "technique": "GDP"}`))
	f.Add([]byte(`{"scenario": "streaming", "cores": 2}`))
	f.Add([]byte(`{"scenario": "streaming", "mix": "H"}`))
	f.Add([]byte(`{"api_version": "v0"}`))
	f.Add([]byte(`{"cores": -1}`))
	f.Add([]byte(`{"cores": 100000, "instructions_per_core": 99999999999}`))
	f.Add([]byte(`{"mix": "bogus", "prb_entries": -7, "interval_cycles": 1}`))
	f.Add([]byte(`{"benchmarks": ["lbm", "lbm"], "prb_entries": 4097}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req EstimateRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		wl, err := req.validate()
		if err != nil {
			requireRequestError(t, err)
			return
		}
		if wl.Cores() == 0 {
			t.Fatalf("validate accepted %q but produced an empty workload", data)
		}
		if req.PRBEntries < 0 || req.PRBEntries > maxServicePRBEntries {
			t.Fatalf("validate accepted prb_entries = %d (limit %d): %q", req.PRBEntries, maxServicePRBEntries, data)
		}
	})
}

// FuzzSweepRequestJSON fuzzes the v1 sweep request validation (grid sizing,
// name checks, work-size limits) without fanning out any cells.
func FuzzSweepRequestJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"core_counts": [2, 4], "mixes": ["H", "L"], "prb_sizes": [16, 32]}`))
	f.Add([]byte(`{"scenarios": ["streaming", "bursty"], "techniques": ["GDP-O"]}`))
	f.Add([]byte(`{"policies": ["UCP"], "workloads": 100}`))
	f.Add([]byte(`{"core_counts": [0]}`))
	f.Add([]byte(`{"mixes": ["nope"]}`))
	f.Add([]byte(`{"core_counts": [1,2,3,4,5,6,7,8], "prb_sizes": [1,2,4,8,16,32,64,128]}`))
	// 64 core counts x 8 scenarios is exactly the cell limit; a scenario-only
	// grid gets no default mixes.
	f.Add([]byte(`{"core_counts": [2` + strings.Repeat(",2", 63) + `], "scenarios": ["bandwidth-bound", "bursty", "cache-thrash", "compute-heavy", "latency-bound", "phased", "pointer-chase", "streaming"]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req SweepRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		opts, err := req.validate()
		if err != nil {
			requireRequestError(t, err)
			return
		}
		// validate sizes the grid with CellCount, which must count exactly
		// the cells the sweep enumerates, and accepted requests stay within
		// the advertised grid bound.
		cells := len(experiments.EnumerateSweepCells(opts))
		if n := opts.CellCount(); n != cells {
			t.Fatalf("CellCount = %d, but the grid enumerates %d cells: %q", n, cells, data)
		}
		if cells > maxSweepCells {
			t.Fatalf("validate accepted a grid of %d cells (limit %d): %q", cells, maxSweepCells, data)
		}
	})
}

// FuzzCellsRequestJSON fuzzes the worker wire endpoint: arbitrary bytes posted
// to /v1/cells must be refused with a 400 or answered with a well-formed
// result stream — one line per posted cell, each carrying an index of the
// batch, then the done line — and never panic. The server's runCell fails
// every accepted cell before it simulates, so the decoder, validateCell and
// the stream are exercised without running a simulation.
func FuzzCellsRequestJSON(f *testing.F) {
	f.Add([]byte(`{"api_version": "v2", "cells": [{"index": 0, "cell": {"kind": "accuracy", "cores": 2, "mix": "H", "prb": 16, "seed": 1}}]}`))
	f.Add([]byte(`{"api_version": "v2", "cells": [{"index": 7, "cell": {"kind": "scenario", "cores": 2, "scenario": "streaming", "prb": 32}}, {"index": 7, "cell": {"kind": "partitioning", "cores": 4, "mix": "M", "policies": ["UCP"]}}]}`))
	f.Add([]byte(`{"api_version": "v1", "cells": [{"index": 0, "cell": {"kind": "accuracy", "cores": 2, "mix": "H", "prb": 16}}]}`))
	f.Add([]byte(`{"api_version": "v2"}`))
	f.Add([]byte(`{"api_version": "v2", "cells": [{"index": -1, "cell": {"kind": "accuracy", "cores": 2, "mix": "H", "prb": 16}}]}`))
	f.Add([]byte(`{"api_version": "v2", "cells": [{"index": 0, "cell": {"kind": "nope", "cores": 100000, "instructions_per_core": 99999999999}}]}`))
	f.Add([]byte(`{"api_version": "v2", "cells": [{"index": 0, "cell": {"kind": "accuracy", "cores": 2, "mix": "H", "prb": -3, "warmup_intervals": 5000, "co_prb_sizes": [0]}}]}`))
	f.Add([]byte(`{"api_version": "v2", "cells": [{}]} trailing`))

	engine, err := NewEngine()
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewServer(engine)
	if err != nil {
		f.Fatal(err)
	}
	srv.runCell = func(experiments.Cell, context.Context, experiments.CellConfig) ([]SweepRow, error) {
		return nil, syscall.EIO
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cells", bytes.NewReader(data)))
		if rec.Code == http.StatusBadRequest {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d for %q, want 200 or 400", rec.Code, data)
		}
		var req dispatch.CellsRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			t.Fatalf("handler accepted %q, which does not decode: %v", data, err)
		}
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		if len(lines) != len(req.Cells)+1 {
			t.Fatalf("%d lines for a batch of %d cells:\n%s", len(lines), len(req.Cells), rec.Body.String())
		}
		for i, line := range lines {
			var res dispatch.CellResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("line %d %q: %v", i, line, err)
			}
			if last := i == len(lines)-1; res.Done != last {
				t.Fatalf("line %d of %d: done = %v", i, len(lines), res.Done)
			}
			if res.Done {
				continue
			}
			if !slices.ContainsFunc(req.Cells, func(env dispatch.CellEnvelope) bool { return env.Index == res.Index }) {
				t.Fatalf("line %d answers index %d, which was not posted", i, res.Index)
			}
			if res.Error == "" || len(res.Rows) != 0 {
				t.Fatalf("line %d: cell ran despite the failing runCell: %+v", i, res)
			}
		}
	})
}

// requireRequestError asserts a rejection maps to HTTP 400.
func requireRequestError(t *testing.T, err error) {
	t.Helper()
	var reqErr *requestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("client-side rejection %v is not a *requestError (would map to HTTP 500)", err)
	}
}
