package dispatch

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestPoolOversizedResultLine is the regression test for the result-stream
// scanner cap: one cell whose NDJSON result line far exceeds bufio.Scanner's
// 64KB default must stream back intact (the scanner grows toward
// maxResultLineBytes instead of erroring the batch).
func TestPoolOversizedResultLine(t *testing.T) {
	const rows = 3000 // ~130 bytes per encoded row: a ~400KB result line
	bigExec := func(c experiments.Cell) ([]experiments.SweepRow, error) {
		out := make([]experiments.SweepRow, rows)
		for i := range out {
			out[i] = experiments.SweepRow{
				Cores: c.Cores, Mix: strings.Repeat("m", 64), PRB: c.PRB,
				Kind: c.Kind, Name: "big", MeanIPCAbsRMS: float64(i),
			}
		}
		return out, nil
	}
	s := httptest.NewServer(newFakeWorker(bigExec))
	defer s.Close()
	pool, err := NewPool(testOptions(s.URL))
	if err != nil {
		t.Fatal(err)
	}
	local := &localCounter{}
	groups, err := pool.Run(context.Background(), testCells(1), RunConfig{Local: local.fn})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups[0]) != rows {
		t.Fatalf("got %d rows, want %d", len(groups[0]), rows)
	}
	if got := local.calls.Load(); got != 0 {
		t.Fatalf("local fallback ran %d cells — the oversized line was not parsed remotely", got)
	}
}

// faultyTransport wraps a RoundTripper: the first failPosts requests fail
// before they reach the worker, and the next cutStreams responses are cut
// after their first line, like a worker dying between result lines.
type faultyTransport struct {
	next                  http.RoundTripper
	failPosts, cutStreams atomic.Int64
}

func (f *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.failPosts.Add(-1) >= 0 {
		return nil, syscall.ECONNRESET
	}
	resp, err := f.next.RoundTrip(req)
	if err == nil && f.cutStreams.Add(-1) >= 0 {
		resp.Body = &cutBody{ReadCloser: resp.Body}
	}
	return resp, err
}

// cutBody passes a response body through up to and including its first
// newline, then fails every read.
type cutBody struct {
	io.ReadCloser
	cut bool
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.cut {
		return 0, syscall.ECONNRESET
	}
	n, err := b.ReadCloser.Read(p)
	if i := bytes.IndexByte(p[:n], '\n'); i >= 0 {
		b.cut = true
		return i + 1, nil
	}
	return n, err
}

// faultyOptions is testOptions over a faultyTransport.
func faultyOptions(url string, failPosts, cutStreams int64) (Options, *faultyTransport) {
	tr := &faultyTransport{next: http.DefaultTransport}
	tr.failPosts.Store(failPosts)
	tr.cutStreams.Store(cutStreams)
	opts := testOptions(url)
	opts.Client = &http.Client{Transport: tr}
	return opts, tr
}

// TestPoolInjectedStreamCutRecovers cuts the first two result streams after
// their first line, like a mid-stream worker death, and the run must still
// complete with the exact rows (reschedule or local fallback — cells are
// pure, so either converges).
func TestPoolInjectedStreamCutRecovers(t *testing.T) {
	s := httptest.NewServer(newFakeWorker(fakeExec))
	defer s.Close()
	opts, tr := faultyOptions(s.URL, 0, 2)
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(4)
	groups, err := pool.Run(context.Background(), cells, RunConfig{Local: (&localCounter{}).fn})
	if err != nil {
		t.Fatal(err)
	}
	want := wantGroups(cells)
	for i := range want {
		if len(groups[i]) != len(want[i]) || groups[i][0] != want[i][0] {
			t.Fatalf("cell %d rows = %+v, want %+v", i, groups[i], want[i])
		}
	}
	if left := tr.cutStreams.Load(); left > 0 {
		t.Fatalf("only %d of 2 streams were cut", 2-left)
	}
}

// TestPoolInjectedSendErrorRecovers fails the first POST before it leaves the
// process, and the batch reroutes.
func TestPoolInjectedSendErrorRecovers(t *testing.T) {
	s := httptest.NewServer(newFakeWorker(fakeExec))
	defer s.Close()
	opts, tr := faultyOptions(s.URL, 1, 0)
	pool, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	cells := testCells(2)
	groups, err := pool.Run(context.Background(), cells, RunConfig{Local: (&localCounter{}).fn})
	if err != nil {
		t.Fatal(err)
	}
	want := wantGroups(cells)
	for i := range want {
		if len(groups[i]) != len(want[i]) || groups[i][0] != want[i][0] {
			t.Fatalf("cell %d rows = %+v, want %+v", i, groups[i], want[i])
		}
	}
	if tr.failPosts.Load() > 0 {
		t.Fatal("the failing POST never happened")
	}
}

// TestDefaultClientHasTransportTimeouts pins the hardened default client: no
// global Client.Timeout (result streams are long-lived), but the transport
// bounds the response-header wait so a silent worker cannot hang a sweep.
func TestDefaultClientHasTransportTimeouts(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Client.Timeout != 0 {
		t.Fatalf("default client has global timeout %v — it would cut long result streams", o.Client.Timeout)
	}
	tr, ok := o.Client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default client transport is %T, want *http.Transport", o.Client.Transport)
	}
	if tr.ResponseHeaderTimeout <= 0 {
		t.Fatal("default transport has no ResponseHeaderTimeout — a silent worker would hang the sweep")
	}
	if tr.TLSHandshakeTimeout <= 0 {
		t.Fatal("default transport has no TLSHandshakeTimeout")
	}

	// An explicit override still wins.
	o2 := Options{ResponseHeaderTimeout: 5 * time.Second}.withDefaults()
	if tr2 := o2.Client.Transport.(*http.Transport); tr2.ResponseHeaderTimeout != 5*time.Second {
		t.Fatalf("ResponseHeaderTimeout = %v, want the 5s override", tr2.ResponseHeaderTimeout)
	}
}
