#!/bin/sh
# serve_smoke.sh boots `gdpsim serve` on an ephemeral loopback port, probes
# /healthz and /metrics, and fails unless the health payload is ok and the
# metrics exposition carries the gdpsim_http_requests_total family (which the
# healthz probe itself populates). It is the CI check that the binary, the
# HTTP layer and the telemetry registry work end to end, not just in-process.
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)
log="$workdir/serve.log"

cleanup() {
    [ -n "${server_pid:-}" ] && kill "$server_pid" 2>/dev/null || true
    [ -n "${server_pid:-}" ] && wait "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

$GO build -o "$workdir/gdpsim" ./cmd/gdpsim
"$workdir/gdpsim" -cache-mem-mb 64 serve -addr 127.0.0.1:0 2>"$log" &
server_pid=$!

# The startup log line carries the resolved ephemeral address:
#   ... level=INFO msg=serving addr=127.0.0.1:NNNNN ...
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/.*msg=serving .*addr=\([0-9.:]*\).*/\1/p' "$log" | head -n1)
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "serve exited early:"; cat "$log"; exit 1; }
    sleep 0.2
done
[ -n "$addr" ] || { echo "no serving line in:"; cat "$log"; exit 1; }
echo "serve-smoke: server on $addr"

health=$(curl -fsS "http://$addr/healthz")
echo "$health" | grep -q '"status": "ok"' || { echo "bad healthz payload: $health"; exit 1; }
echo "$health" | grep -q '"git_revision"' || { echo "healthz missing git_revision: $health"; exit 1; }

# One real estimate before the metrics scrape.
curl -fsS -X POST "http://$addr/v1/estimate" \
    -d '{"cores": 2, "mix": "H", "instructions_per_core": 2000, "interval_cycles": 2000}' \
    | grep -q '"cores"' || { echo "estimate request failed"; exit 1; }

metrics=$(curl -fsS "http://$addr/metrics")
echo "$metrics" | grep -q '^gdpsim_http_requests_total{' || {
    echo "metrics exposition missing gdpsim_http_requests_total:"; echo "$metrics" | head -n 20; exit 1; }
echo "$metrics" | grep -q '^# TYPE gdpsim_http_request_seconds histogram' || {
    echo "metrics exposition missing the latency histogram family"; exit 1; }
for series in gdpsim_cache_evictions_total gdpsim_cache_mem_bytes \
              gdpsim_cache_mem_budget_bytes gdpsim_coalesce_joined_total; do
    echo "$metrics" | grep -q "^$series " || {
        echo "metrics exposition missing $series"; exit 1; }
done
# -cache-mem-mb 64 = 67108864 bytes must be reported as the budget gauge.
echo "$metrics" | grep -q '^gdpsim_cache_mem_budget_bytes 6.7108864e+07' || {
    echo "cache budget gauge does not reflect -cache-mem-mb 64:"
    echo "$metrics" | grep '^gdpsim_cache_mem_budget_bytes'; exit 1; }

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
grep -q 'msg="shutting down' "$log" || { echo "no graceful-shutdown line in:"; cat "$log"; exit 1; }
server_pid=""
echo "serve-smoke: ok"
