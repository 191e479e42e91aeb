// Package dispatch shards a sweep grid across a fleet of remote `gdpsim
// serve` workers. Cells are self-contained (experiments.Cell) and
// content-addressed (runner.SpecKey), so any worker produces byte-identical
// rows for a cell and answers repeats straight from its two-layer cache; the
// dispatcher's job is purely scheduling — partitioning cells across workers,
// stealing stragglers, retrying through failures with jittered backoff and
// per-worker circuit breakers, and degrading to local in-process execution
// when the fleet is empty or fully unhealthy — while preserving the local
// runner's deterministic by-index merge, so `jobs=1`, `jobs=8` and
// `workers=N` all produce identical rows.
package dispatch

import (
	"fmt"
	"net/url"
	"strings"

	"repro/internal/experiments"
)

// ProtocolVersion is the worker wire protocol version. A worker rejects a
// batch whose api_version it does not speak, so a mixed-version fleet fails
// loudly at dispatch time instead of corrupting a sweep.
const ProtocolVersion = "v2"

// CellEnvelope pairs a cell with its index in the dispatcher's grid, so
// streamed results merge back by position no matter which worker ran them or
// in what order they finished.
type CellEnvelope struct {
	Index int              `json:"index"`
	Cell  experiments.Cell `json:"cell"`
}

// CellsRequest is the body of POST /v1/cells: one batch of spec-keyed cells
// to execute. The response is the batch's NDJSON result stream.
type CellsRequest struct {
	APIVersion string         `json:"api_version"`
	Cells      []CellEnvelope `json:"cells"`
}

// CellResult is one NDJSON line of the POST /v1/cells response: a completed
// cell (Rows set), a failed cell (Error set), or the terminal line (Done
// true) that closes the stream. Lines arrive in completion order.
type CellResult struct {
	Index int                    `json:"index"`
	Rows  []experiments.SweepRow `json:"rows,omitempty"`
	Error string                 `json:"error,omitempty"`
	// Retryable marks an error that reflects the worker's state (shutdown,
	// batch timeout) rather than the cell itself: the dispatcher reschedules
	// the cell instead of failing the sweep.
	Retryable bool `json:"retryable,omitempty"`

	Done bool `json:"done,omitempty"`
}

// WorkerURLError reports a malformed worker address. It is a typed error so
// the HTTP service can classify it as a client mistake (400) rather than a
// dispatch failure.
type WorkerURLError struct {
	URL    string
	Reason string
}

func (e *WorkerURLError) Error() string {
	return fmt.Sprintf("dispatch: bad worker url %q: %s", e.URL, e.Reason)
}

// ParseWorkers validates and normalizes a worker fleet specification. Each
// entry is a base URL of a `gdpsim serve` worker; a bare host[:port] gets an
// http:// scheme prepended, trailing slashes are stripped, and entries with
// paths, queries, credentials or duplicate targets are rejected with a
// *WorkerURLError. The returned list preserves order (the dispatcher's worker
// indices are stable for telemetry labels).
func ParseWorkers(raw []string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for _, entry := range raw {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		withScheme := entry
		if !strings.Contains(withScheme, "://") {
			withScheme = "http://" + withScheme
		}
		u, err := url.Parse(withScheme)
		if err != nil {
			return nil, &WorkerURLError{URL: entry, Reason: err.Error()}
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, &WorkerURLError{URL: entry, Reason: fmt.Sprintf("unsupported scheme %q (want http or https)", u.Scheme)}
		}
		if u.Host == "" {
			return nil, &WorkerURLError{URL: entry, Reason: "missing host"}
		}
		if u.User != nil {
			return nil, &WorkerURLError{URL: entry, Reason: "credentials not supported"}
		}
		if p := strings.TrimSuffix(u.Path, "/"); p != "" {
			return nil, &WorkerURLError{URL: entry, Reason: fmt.Sprintf("unexpected path %q (want a bare base URL)", u.Path)}
		}
		if u.RawQuery != "" || u.Fragment != "" {
			return nil, &WorkerURLError{URL: entry, Reason: "unexpected query or fragment"}
		}
		// Dedup on the canonical target, not the spelling: DNS hostnames are
		// case-insensitive and :80/:443 are the schemes' defaults, so
		// "http://Host:80" and "host" are the same worker — admitting both
		// would double-dispatch to one machine.
		host := strings.ToLower(u.Host)
		switch {
		case u.Scheme == "http" && strings.HasSuffix(host, ":80"):
			host = strings.TrimSuffix(host, ":80")
		case u.Scheme == "https" && strings.HasSuffix(host, ":443"):
			host = strings.TrimSuffix(host, ":443")
		}
		norm := u.Scheme + "://" + host
		if seen[norm] {
			return nil, &WorkerURLError{URL: entry, Reason: "duplicate worker"}
		}
		seen[norm] = true
		out = append(out, norm)
	}
	return out, nil
}
