package trace_test

import (
	"bytes"
	"io"
	"testing"

	gdp "repro"
	"repro/internal/trace"
	"repro/internal/workload"
)

// These tests pin the raw-record recording that outlived the trace file
// format: gdp.RecordTrace writes a generator's stream as fixed-size records
// and gdp.NewTraceReplayer plays it back, wrapping at its end. The benchmark
// ledger's trace probe is their only caller.

func recordParams() trace.Params {
	return trace.Params{
		LoadFrac:        0.3,
		StoreFrac:       0.1,
		FPFrac:          0.3,
		FPMulFrac:       0.2,
		IntMulFrac:      0.05,
		BranchFrac:      0.1,
		MispredictRate:  0.05,
		LoadDepFrac:     0.3,
		DepDistanceMean: 4,
		WorkingSets: []trace.WorkingSet{
			{Bytes: 4096, AccessProb: 0.7},
			{Bytes: 1 << 20, AccessProb: 0.3, Sequential: true, Stride: 64},
		},
	}
}

func newRecordGenerator(t testing.TB, seed int64) *trace.Generator {
	t.Helper()
	g, err := trace.NewGenerator(recordParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// encodeTrace records n generated instructions and returns the bytes.
func encodeTrace(t testing.TB, name string, seed int64, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gdp.RecordTrace(&buf, name, newRecordGenerator(t, seed), n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriterReaderRoundTrip(t *testing.T) {
	const n = 5000
	want := newRecordGenerator(t, 42).Generate(n)
	rep, err := gdp.NewTraceReplayer(bytes.NewReader(encodeTrace(t, "roundtrip", 42, n)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := rep.Next(); got != want[i] {
			t.Fatalf("instruction %d: got %+v, want %+v", i, got, want[i])
		}
	}
}

func TestReplayerWrapsAround(t *testing.T) {
	rep, err := gdp.NewTraceReplayer(bytes.NewReader(encodeTrace(t, "wrap", 1, 10)))
	if err != nil {
		t.Fatal(err)
	}
	first := make([]trace.Instruction, 10)
	for i := range first {
		first[i] = rep.Next()
	}
	for i := 0; i < 10; i++ {
		if got := rep.Next(); got != first[i] {
			t.Fatalf("wrapped instruction %d differs: %+v vs %+v", i, got, first[i])
		}
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	if _, err := gdp.NewTraceReplayer(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestReaderRejectsTruncatedFile(t *testing.T) {
	valid := encodeTrace(t, "victim", 7, 500)
	// A cut inside a record must fail, not silently yield a short stream.
	for _, cut := range []int{len(valid) - 1, len(valid)/2 + 1, 7} {
		if _, err := gdp.NewTraceReplayer(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(valid))
		}
	}
}

func TestRecordRejectsZeroCount(t *testing.T) {
	if err := gdp.RecordTrace(io.Discard, "zero", newRecordGenerator(t, 1), 0); err == nil {
		t.Error("RecordTrace(0) succeeded")
	}
}

// TestSuiteRoundTrip checks the recording over the full benchmark suite: for
// every benchmark, recording n instructions and replaying them yields exactly
// the stream a fresh generator with the same seed produces.
func TestSuiteRoundTrip(t *testing.T) {
	const (
		n    = 2000
		seed = 97
	)
	for _, bench := range workload.Suite() {
		t.Run(bench.Name, func(t *testing.T) {
			rec, err := bench.NewGenerator(seed)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := gdp.RecordTrace(&buf, bench.Name, rec, n); err != nil {
				t.Fatal(err)
			}
			rep, err := gdp.NewTraceReplayer(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := bench.NewGenerator(seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				want := fresh.Next()
				if got := rep.Next(); got != want {
					t.Fatalf("instruction %d: replayed %+v, generated %+v", i, got, want)
				}
			}
		})
	}
}
