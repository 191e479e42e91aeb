package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"
)

// Result-stream scanner sizing: rows for a wide sweep cell can far exceed
// bufio's 64KB default line cap, so the scanner starts small but may grow to
// maxResultLineBytes before a line is an error.
const (
	initialResultLineBytes = 64 * 1024
	maxResultLineBytes     = 16 * 1024 * 1024
)

// workerClient is the dispatcher's view of one remote `gdpsim serve` worker:
// the wire calls plus the worker's failure state (consecutive-failure count
// and circuit breaker).
type workerClient struct {
	url    string
	client *http.Client

	mu        sync.Mutex
	fails     int       // consecutive transport failures
	openUntil time.Time // breaker open until this instant (zero = closed)
}

// healthy reports whether the worker is eligible for new batches now.
func (w *workerClient) healthy(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return now.After(w.openUntil)
}

// success resets the failure streak and closes the breaker.
func (w *workerClient) success() {
	w.mu.Lock()
	w.fails = 0
	w.openUntil = time.Time{}
	w.mu.Unlock()
}

// failure records one transport failure and returns the backoff to sleep plus
// whether this failure tripped the breaker open.
func (w *workerClient) failure(o Options) (backoff time.Duration, tripped bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails++
	// Jittered exponential backoff on the failure streak.
	d := o.BackoffBase << (w.fails - 1)
	if d > o.BackoffMax || d <= 0 {
		d = o.BackoffMax
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1)) // up to +50% jitter
	if w.fails >= o.BreakerThreshold {
		w.openUntil = time.Now().Add(o.BreakerCooldown)
		tripped = true
	}
	return d, tripped
}

// runBatch executes one batch on the worker: POST the cells and scan the
// NDJSON result stream the worker answers with, invoking onResult for every
// per-cell line. It returns nil only after the terminal done line; any
// transport or protocol problem — connection failure, non-200 status, a result
// for a cell that was not in the batch, stream cut before done — is an error
// and the caller reschedules the batch's unfinished cells.
func (w *workerClient) runBatch(ctx context.Context, cells []CellEnvelope, onResult func(CellResult)) error {
	body, err := json.Marshal(CellsRequest{APIVersion: ProtocolVersion, Cells: cells})
	if err != nil {
		return fmt.Errorf("dispatch: marshal batch: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("dispatch: worker %s rejected batch: %s: %s", w.url, resp.Status, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, initialResultLineBytes), maxResultLineBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var res CellResult
		if err := json.Unmarshal(line, &res); err != nil {
			return fmt.Errorf("dispatch: worker %s sent bad result line: %w", w.url, err)
		}
		if res.Done {
			return nil
		}
		// The index comes off the network: only a cell of this batch may be
		// completed by it, or another cell would silently get these rows.
		if !slices.ContainsFunc(cells, func(env CellEnvelope) bool { return env.Index == res.Index }) {
			return fmt.Errorf("dispatch: worker %s answered cell %d, which is not in the batch", w.url, res.Index)
		}
		onResult(res)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dispatch: worker %s stream cut: %w", w.url, err)
	}
	return fmt.Errorf("dispatch: worker %s stream ended before done line", w.url)
}
