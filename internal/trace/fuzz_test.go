package trace_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	gdp "repro"
	"repro/internal/trace"
)

// recordSize is the length of one gdp.RecordTrace record.
var recordSize = binary.Size(trace.Instruction{})

func rawRecords(t testing.TB, insts []trace.Instruction) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, insts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader throws arbitrary bytes at gdp.NewTraceReplayer. The invariants:
// it never panics, it accepts exactly the non-empty inputs that are a whole
// number of records, and an accepted stream re-encodes and re-decodes to the
// same instructions. The committed corpus under testdata/fuzz holds files of
// the retired gzip trace format, which must be rejected or decoded the same
// way.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("GDPTRC"))
	f.Add(rawRecords(f, []trace.Instruction{{Kind: trace.Load, Addr: 1 << 40, Dep1: 3}}))
	f.Add(rawRecords(f, []trace.Instruction{
		{Kind: trace.IntOp, Dep1: 1, Dep2: 2},
		{Kind: trace.Branch, Dep1: 4, Mispredicted: true},
		{Kind: trace.Store, Addr: 4096, Dep1: 1, Dep2: 1},
		{Kind: trace.FPMul, Dep1: 8, Dep2: 16},
	}))
	f.Add(encodeTrace(f, "generated", 3, 64))
	truncated := encodeTrace(f, "trunc", 3, 1)
	f.Add(truncated[:len(truncated)-3])
	// A non-canonical bool byte decodes as true and re-encodes as 1.
	odd := rawRecords(f, []trace.Instruction{{Kind: trace.Branch, Dep1: 1, Mispredicted: true}})
	odd[len(odd)-1] = 2
	f.Add(odd)

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := gdp.NewTraceReplayer(bytes.NewReader(data))
		whole := len(data) > 0 && len(data)%recordSize == 0
		if err != nil {
			if whole {
				t.Fatalf("rejected %d bytes of whole records: %v", len(data), err)
			}
			return
		}
		if !whole {
			t.Fatalf("accepted %d bytes, not a whole number of %d-byte records", len(data), recordSize)
		}
		insts := make([]trace.Instruction, len(data)/recordSize)
		for i := range insts {
			insts[i] = rep.Next()
		}
		again, err := gdp.NewTraceReplayer(bytes.NewReader(rawRecords(t, insts)))
		if err != nil {
			t.Fatalf("re-decoding re-encoded stream: %v", err)
		}
		for i := range insts {
			if got := again.Next(); got != insts[i] {
				t.Fatalf("round trip changed instruction %d: %+v vs %+v", i, got, insts[i])
			}
		}
	})
}

// FuzzReaderStreaming drives Next past the end of an accepted stream, so the
// wrap-around bookkeeping gets fuzzed too: every later pass repeats the first.
func FuzzReaderStreaming(f *testing.F) {
	f.Add(encodeTrace(f, "stream", 11, 32))
	f.Add([]byte("GDPTRC\x01\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := gdp.NewTraceReplayer(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := make([]trace.Instruction, len(data)/recordSize)
		for i := range first {
			first[i] = rep.Next()
		}
		for pass := 1; pass <= 2; pass++ {
			for i := range first {
				if got := rep.Next(); got != first[i] {
					t.Fatalf("pass %d, instruction %d: %+v, first pass %+v", pass, i, got, first[i])
				}
			}
		}
	})
}
