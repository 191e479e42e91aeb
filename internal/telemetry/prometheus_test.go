package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exact text exposition produced for a
// registry covering every series kind: unlabeled and labeled counters,
// function-backed values, gauges, and a histogram with label escaping.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("gdpsim_test_events_total", "Total events.")
	c.Add(3)

	vec := r.CounterVec("gdpsim_test_requests_total", "Requests by endpoint.", "endpoint", "code")
	vec.With("/v1/estimate", "200").Add(2)
	vec.With("/v1/estimate", "499").Inc()
	vec.With("/v1/sweep", "200").Inc()

	g := r.Gauge("gdpsim_test_queue_depth_jobs", "Jobs waiting.")
	g.Set(4)

	r.GaugeFunc("gdpsim_test_temperature", "Read at collect time.", func() float64 { return 1.5 })

	h := r.Histogram("gdpsim_test_latency_seconds", "Latency with\nnewline help.", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.05, 0.3, 2} {
		h.Observe(v)
	}

	esc := r.CounterVec("gdpsim_test_escape_total", "Label escaping.", "path")
	esc.With(`a"b\c` + "\nd").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP gdpsim_test_escape_total Label escaping.
# TYPE gdpsim_test_escape_total counter
gdpsim_test_escape_total{path="a\"b\\c\nd"} 1
# HELP gdpsim_test_events_total Total events.
# TYPE gdpsim_test_events_total counter
gdpsim_test_events_total 3
# HELP gdpsim_test_latency_seconds Latency with\nnewline help.
# TYPE gdpsim_test_latency_seconds histogram
gdpsim_test_latency_seconds_bucket{le="0.1"} 2
gdpsim_test_latency_seconds_bucket{le="0.5"} 3
gdpsim_test_latency_seconds_bucket{le="1"} 3
gdpsim_test_latency_seconds_bucket{le="+Inf"} 4
gdpsim_test_latency_seconds_sum 2.4
gdpsim_test_latency_seconds_count 4
# HELP gdpsim_test_queue_depth_jobs Jobs waiting.
# TYPE gdpsim_test_queue_depth_jobs gauge
gdpsim_test_queue_depth_jobs 4
# HELP gdpsim_test_requests_total Requests by endpoint.
# TYPE gdpsim_test_requests_total counter
gdpsim_test_requests_total{endpoint="/v1/estimate",code="200"} 2
gdpsim_test_requests_total{endpoint="/v1/estimate",code="499"} 1
gdpsim_test_requests_total{endpoint="/v1/sweep",code="200"} 1
# HELP gdpsim_test_temperature Read at collect time.
# TYPE gdpsim_test_temperature gauge
gdpsim_test_temperature 1.5
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusDeterministic verifies repeated encodes of the same
// state are byte-identical (map iteration order must not leak through).
func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	vec := r.GaugeVec("gdpsim_test_depth", "help", "shard")
	for _, s := range []string{"c", "a", "b", "d", "e"} {
		vec.With(s).Set(int64(len(s)))
	}
	var first string
	for i := 0; i < 5; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("encode %d differs from first:\n%s\nvs\n%s", i, sb.String(), first)
		}
	}
}

// TestSnapshotJSON round-trips a snapshot through encoding/json.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help").Add(7)
	h := r.Histogram("b_seconds", "help", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(3)

	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back []FamilySnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("families = %d, want 2", len(back))
	}
	if back[0].Name != "a_total" || back[0].Series[0].Value == nil || *back[0].Series[0].Value != 7 {
		t.Errorf("counter snapshot: %+v", back[0])
	}
	hs := back[1].Series[0].Histogram
	if hs == nil || hs.Count != 2 || hs.Sum != 3.5 {
		t.Errorf("histogram snapshot: %+v", hs)
	}
	if want := []uint64{1, 0, 1}; len(hs.Buckets) != 3 || hs.Buckets[0] != want[0] || hs.Buckets[2] != want[2] {
		t.Errorf("buckets = %v, want %v", hs.Buckets, want)
	}
}
