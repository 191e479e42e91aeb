package gdp

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestEngineScenariosListsRegistry(t *testing.T) {
	engine, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	scs := engine.Scenarios()
	if len(scs) < 8 {
		t.Fatalf("Engine.Scenarios() lists %d scenarios, want at least 8", len(scs))
	}
}

func TestRunScenarioUnknownNameTypedError(t *testing.T) {
	engine, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.RunScenario(context.Background(), "no-such-scenario", ScenarioRunOptions{})
	if err == nil {
		t.Fatal("RunScenario succeeded for an unknown name")
	}
	var unknown *UnknownScenarioError
	if !errors.As(err, &unknown) {
		t.Fatalf("error %v is not an *UnknownScenarioError", err)
	}
	var reqErr *RequestError
	if !errors.As(err, &reqErr) {
		t.Fatalf("error %v would not map to HTTP 400", err)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/scenarios", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var resp ScenariosResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.APIVersion != APIVersion {
		t.Errorf("api_version = %q", resp.APIVersion)
	}
	if len(resp.Scenarios) < 8 {
		t.Fatalf("endpoint lists %d scenarios, want at least 8", len(resp.Scenarios))
	}
	for _, sc := range resp.Scenarios {
		if sc.Name == "" || sc.Description == "" || sc.Class == "" {
			t.Errorf("incomplete scenario row %+v", sc)
		}
	}

	post := httptest.NewRequest(http.MethodPost, "/v1/scenarios", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, post)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/scenarios status = %d, want 405", rec.Code)
	}
}

func TestEstimateEndpointScenario(t *testing.T) {
	srv := testServer(t)
	rec := postJSON(t, srv, "/v1/estimate",
		`{"scenario": "compute-heavy", "cores": 2, "instructions_per_core": 1000, "interval_cycles": 800}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var resp EstimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Workload != "2c-scenario-compute-heavy" {
		t.Errorf("workload = %q", resp.Workload)
	}
	if len(resp.Cores) != 2 || resp.Cores[0].Benchmark != "compute-heavy.0" {
		t.Errorf("unexpected cores payload: %+v", resp.Cores)
	}
}

// TestEstimateEndpointScenarioBadRequests pins the 400 mapping of the typed
// unknown-scenario error and the mutual-exclusion rules.
func TestEstimateEndpointScenarioBadRequests(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"unknown scenario", `{"scenario": "no-such-scenario"}`},
		{"scenario with benchmarks", `{"scenario": "streaming", "benchmarks": ["gzip"]}`},
		{"scenario with mix", `{"scenario": "streaming", "mix": "H"}`},
		{"scenario with bad cores", `{"scenario": "streaming", "cores": 9999}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postJSON(t, srv, "/v1/estimate", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
			}
		})
	}
}

// TestSweepValidateCountsParsedMixes pins the grid-size accounting against
// whitespace-only mix entries: ParseMixList drops them, the sweep then runs
// with the 3-mix default, and the cell bound must be computed from that
// default — not from the raw entry count.
func TestSweepValidateCountsParsedMixes(t *testing.T) {
	req := &SweepRequest{CoreCounts: make([]int, 200), Mixes: []string{" "}}
	for i := range req.CoreCounts {
		req.CoreCounts[i] = 2
	}
	// 200 cores x 3 defaulted mixes = 600 cells > the 512-cell limit.
	if _, err := req.validate(); err == nil {
		t.Fatal("validate accepted a grid that defaults past the cell limit")
	}
}

func TestSweepEndpointScenarios(t *testing.T) {
	srv := testServer(t)
	rec := postJSON(t, srv, "/v1/sweep",
		`{"core_counts": [2], "mixes": ["H"], "scenarios": ["compute-heavy"], "techniques": ["GDP-O"], "workloads": 1, "instructions_per_core": 1000, "interval_cycles": 800}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body = %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cells != 2 {
		t.Errorf("cells = %d, want 2 (one accuracy + one scenario)", resp.Cells)
	}
	var scenarioRows int
	for _, row := range resp.Rows {
		if row.Kind == "scenario" {
			scenarioRows++
			if row.Mix != "compute-heavy" {
				t.Errorf("scenario row mix = %q", row.Mix)
			}
		}
	}
	if scenarioRows == 0 {
		t.Error("no scenario rows in sweep response")
	}

	rec = postJSON(t, srv, "/v1/sweep", `{"scenarios": ["bogus"]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown sweep scenario status = %d, want 400", rec.Code)
	}
}
