package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	gdp "repro"
)

// serveOpsPerClient is the number of requests each connection sends per
// round (about one second of work at two connections on the reference box).
const serveOpsPerClient = 60

// serveVerifyEvery samples the bodies whose HTTP response is compared with an
// in-process Engine.Estimate after the timed rounds.
const serveVerifyEvery = 8

// serveFixture drives serve_unique and serve_dup: a real net/http server on
// loopback wrapping gdp.NewServer(engine) with its defaults (zero coalesce
// window), keep-alive connections, one closed-loop client per connection.
type serveFixture struct {
	dup          bool
	clients      int
	opsPerClient int
	engine       *gdp.Engine
	// direct runs the in-process halves of paired measurements, so that the
	// served engine's counters see service traffic only.
	direct *gdp.Engine
	srv    *http.Server
	served chan error
	client *http.Client
	url    string
	// reqs[c] and bodies[c] are client c's operation list. In serve_dup both
	// clients share one list.
	reqs   [][]gdp.EstimateRequest
	bodies [][][]byte
	// lastResponses[c][i] is the body client c received for operation i in
	// the most recent round; verify reads it.
	lastResponses [][][]byte
}

// newServeFixture starts the server and generates opsPerClient requests per
// client (the workloads use serveOpsPerClient; the layer probes size their own
// lists).
func newServeFixture(e env, dup bool, opsPerClient int) (*serveFixture, error) {
	f := &serveFixture{dup: dup, clients: e.clients, opsPerClient: opsPerClient}
	if dup {
		// The coalescer needs two requests in flight: exactly two
		// connections, whatever the machine.
		f.clients = 2
	}
	var err error
	if f.engine, err = gdp.NewEngine(); err != nil {
		return nil, err
	}
	if f.direct, err = gdp.NewEngine(); err != nil {
		return nil, err
	}
	handler, err := gdp.NewServer(f.engine)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.url = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: handler}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()
	f.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: f.clients, MaxIdleConnsPerHost: f.clients, MaxConnsPerHost: f.clients,
	}}

	distinct := f.clients
	if dup {
		distinct = 1
	}
	all := estimateRequests(e.seed, distinct*opsPerClient)
	for c := 0; c < f.clients; c++ {
		list := all[:opsPerClient]
		if !dup {
			list = all[c*opsPerClient : (c+1)*opsPerClient]
		}
		bodies, err := encodeBodies(list)
		if err != nil {
			f.close()
			return nil, err
		}
		f.reqs = append(f.reqs, list)
		f.bodies = append(f.bodies, bodies)
	}
	return f, nil
}

// post sends one pre-encoded body and returns the status and response body.
func (f *serveFixture) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return f.do(req)
}

func (f *serveFixture) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return f.do(req)
}

func (f *serveFixture) do(req *http.Request) (int, []byte, error) {
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// checkEstimate decodes a response and applies the sanity checks every
// estimate must pass: finite values and a positive shared CPI on every core.
func checkEstimate(raw []byte) (*gdp.EstimateResponse, string) {
	var resp gdp.EstimateResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, "response does not decode: " + err.Error()
	}
	if len(resp.Cores) == 0 || resp.Cycles == 0 {
		return &resp, "response reports no cores or no cycles"
	}
	for _, c := range resp.Cores {
		for _, v := range []float64{c.SharedCPI, c.SharedIPC, c.EstimatedPrivateCPI, c.EstimatedPrivateIPC, c.EstimatedSlowdown} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return &resp, fmt.Sprintf("core %d reports a non-finite value", c.Core)
			}
		}
		if !(c.SharedCPI > 0) {
			return &resp, fmt.Sprintf("core %d reports shared CPI %v", c.Core, c.SharedCPI)
		}
	}
	return &resp, ""
}

// clientResult is what one client goroutine brings back from a round.
type clientResult struct {
	latenciesMS []float64
	cycles      uint64
	failed      int
	simNS       int64
	violations  []string
	responses   [][]byte
	err         error
}

func (f *serveFixture) round(ctx context.Context, rec *spanRecorder) (*roundOut, error) {
	before, directBefore := engineCounts(f.engine), engineCounts(f.direct)
	results := make([]clientResult, f.clients)
	// In serve_dup the two clients meet at a barrier before every pair, so
	// that both requests of a pair are in flight together.
	var barrier *pairBarrier
	if f.dup {
		barrier = newPairBarrier(f.clients)
	}
	var wg sync.WaitGroup
	for c := 0; c < f.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[c]
			r.responses = make([][]byte, len(f.bodies[c]))
			for i, body := range f.bodies[c] {
				if barrier != nil {
					barrier.wait()
				}
				opID := c*len(f.bodies[c]) + i + 1
				spanID, end := rec.begin(opID, 0, "op.request")
				start := nowNS()
				var status int
				var raw []byte
				var err error
				rec.time(opID, spanID, "service.roundtrip", func(int) { status, raw, err = f.post(ctx, "/v1/estimate", body) })
				r.latenciesMS = append(r.latenciesMS, float64(nowNS()-start)/1e6)
				if err != nil {
					end()
					r.err = fmt.Errorf("client %d op %d: %w", c, i, err)
					if barrier != nil {
						barrier.abort()
					}
					return
				}
				r.responses[i] = raw
				if status != http.StatusOK {
					r.failed++
					r.violations = append(r.violations, fmt.Sprintf("client %d op %d: status %d", c, i, status))
				} else if resp, bad := checkEstimate(raw); bad != "" {
					r.failed++
					r.violations = append(r.violations, fmt.Sprintf("client %d op %d: %s", c, i, bad))
				} else {
					r.cycles += resp.Cycles
				}
				if rec != nil {
					// The traced walk pairs every round trip with the same
					// estimate made in process, on an engine of its own.
					t0 := nowNS()
					rec.time(opID, spanID, "engine.estimate", func(int) { _, err = f.direct.Estimate(ctx, &f.reqs[c][i]) })
					r.simNS += nowNS() - t0
					if err != nil {
						r.violations = append(r.violations, fmt.Sprintf("client %d op %d in process: %v", c, i, err))
					}
				}
				end()
			}
		}()
	}
	wg.Wait()

	out := &roundOut{}
	h := sha256.New()
	f.lastResponses = f.lastResponses[:0]
	for c := range results {
		r := &results[c]
		if r.err != nil {
			return nil, r.err
		}
		out.ops += len(r.latenciesMS)
		out.failed += r.failed
		out.cycles += r.cycles
		out.simNS += r.simNS
		out.latenciesMS = append(out.latenciesMS, r.latenciesMS...)
		out.violations = append(out.violations, r.violations...)
		for _, raw := range r.responses {
			h.Write(raw)
		}
		f.lastResponses = append(f.lastResponses, r.responses)
	}
	if f.dup {
		for i := range results[0].responses {
			if !bytes.Equal(results[0].responses[i], results[1].responses[i]) {
				out.failed++
				out.violations = append(out.violations, fmt.Sprintf("pair %d: the two halves received different bytes", i))
			}
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.counts = engineCounts(f.engine).minus(before)
	out.exact = exactCounts(out.counts, !f.dup)
	spanSimCounts(out, engineCounts(f.direct).minus(directBefore))
	return out, nil
}

func (f *serveFixture) idle() {}

// verify compares sampled HTTP responses of the last round with an
// in-process Engine.Estimate on the same request: the wrapper must not change
// a single value.
func (f *serveFixture) verify(ctx context.Context) []string {
	var out []string
	for c := range f.lastResponses {
		for i := 0; i < len(f.lastResponses[c]); i += serveVerifyEvery {
			want, err := f.direct.Estimate(ctx, &f.reqs[c][i])
			if err != nil {
				out = append(out, fmt.Sprintf("client %d op %d in process: %v", c, i, err))
				continue
			}
			var got gdp.EstimateResponse
			if err := json.Unmarshal(f.lastResponses[c][i], &got); err != nil {
				out = append(out, fmt.Sprintf("client %d op %d: %v", c, i, err))
				continue
			}
			a, _ := json.Marshal(want)
			b, _ := json.Marshal(&got)
			if !bytes.Equal(a, b) {
				out = append(out, fmt.Sprintf("client %d op %d: HTTP response differs from in-process Engine.Estimate", c, i))
			}
		}
	}
	return out
}

func (f *serveFixture) opCounts() map[string]int {
	return map[string]int{
		"ops_per_round": f.clients * f.opsPerClient, "ops_per_client": f.opsPerClient, "clients": f.clients,
		"cores": serveCores, "instructions_per_core": serveInstructions, "interval_cycles": serveInterval,
	}
}

func (f *serveFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = f.srv.Shutdown(ctx) // the listener is gone either way; Serve's return is what we wait for
	<-f.served
	f.client.CloseIdleConnections()
}

// pairBarrier releases its n participants together, once per pair.
type pairBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	aborted bool
}

func newPairBarrier(n int) *pairBarrier {
	b := &pairBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *pairBarrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return
	}
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen := b.gen; gen == b.gen && !b.aborted; {
		b.cond.Wait()
	}
}

// abort releases everyone for good: a client that failed must not leave its
// partner waiting at the barrier.
func (b *pairBarrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
