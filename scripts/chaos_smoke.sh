#!/bin/sh
# chaos_smoke.sh is the end-to-end check of the fault-injection harness and
# of crash-safe sweeps:
#
#   1. A -cache-dir sweep running under injected disk-write errors is
#      SIGKILLed mid-grid; rerunning it over the same directory finishes it,
#      and the final JSON export must be byte-identical to an uninterrupted
#      fault-free run.
#   2. The same grid sharded across a real worker whose cell execution is
#      injected to panic — the worker must survive (the cell comes back as a
#      retried failure, not a dead process), the dispatcher's stream is cut
#      mid-flight, and the rows still match byte for byte.
#   3. The worker's /metrics must expose gdpsim_fault_injected_total for every
#      injection point, with the cell.exec point actually moved.
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)

cleanup() {
    [ -n "${w1_pid:-}" ] && kill "$w1_pid" 2>/dev/null || true
    [ -n "${w1_pid:-}" ] && wait "$w1_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

$GO build -o "$workdir/gdpsim" ./cmd/gdpsim

# Tiny deterministic scale; instructions sized so one cell takes long enough
# that the kill below lands mid-grid rather than after it.
SCALE="-workloads 1 -instructions 20000 -interval 2000 -seed 1"
GRID="-cores 2 -mixes H,M,L -prb 16,32 -techniques GDP"

# Reference: the grid uninterrupted, no faults.
# shellcheck disable=SC2086
"$workdir/gdpsim" $SCALE sweep $GRID -json "$workdir/ref.json" >/dev/null
echo "chaos-smoke: reference rows computed"

# --- Phase 1: crash mid-grid under injected disk faults, then rerun --------
# The cache directory is the sweep's one durable store: every completed cell
# is fsynced into it before the next one starts.
cache="$workdir/cache"
# shellcheck disable=SC2086
FI_SPEC="disk.write:err=EIO:every=3" \
    "$workdir/gdpsim" -jobs 1 -cache-dir "$cache" $SCALE sweep $GRID \
    -json "$workdir/crashed.json" >/dev/null 2>"$workdir/crash.log" &
sweep_pid=$!

# SIGKILL once the cache holds at least two entries. If the grid outruns the
# poll, the kill is a no-op and the rerun below simply recalls every cell.
entries() { find "$cache" -name '*.json' 2>/dev/null | wc -l; }
for _ in $(seq 1 200); do
    [ "$(entries)" -ge 2 ] && break
    kill -0 "$sweep_pid" 2>/dev/null || break
    sleep 0.05
done
kill -9 "$sweep_pid" 2>/dev/null || true
wait "$sweep_pid" 2>/dev/null || true
[ "$(entries)" -ge 1 ] || { echo "no cache entry survived the kill"; cat "$workdir/crash.log" >&2; exit 1; }
echo "chaos-smoke: killed sweep mid-grid, cache holds $(entries) entries"

# Rerun over the same directory under the same injected disk faults: it
# recalls what the killed run finished and is byte-identical to the reference.
# shellcheck disable=SC2086
FI_SPEC="disk.write:err=EIO:every=3" \
    "$workdir/gdpsim" -jobs 1 -cache-dir "$cache" $SCALE sweep $GRID \
    -json "$workdir/resumed.json" >/dev/null
cmp "$workdir/ref.json" "$workdir/resumed.json" || {
    echo "resumed rows differ from the uninterrupted run"; exit 1; }
echo "chaos-smoke: resumed rows byte-identical to reference"

# --- Phase 2: fleet sweep with a panicking worker and cut streams ----------
# The worker's first cell execution panics (injected); the dispatcher's result
# stream is cut twice. The worker must survive its panic and the rows match.
# shellcheck disable=SC2086
FI_SPEC="cell.exec:panic=1:times=1" \
    "$workdir/gdpsim" $SCALE serve -addr 127.0.0.1:0 2>"$workdir/w1.log" &
w1_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/.*msg=serving .*addr=\([0-9.:]*\).*/\1/p' "$workdir/w1.log" | head -n1)
    [ -n "$addr" ] && break
    kill -0 "$w1_pid" 2>/dev/null || { echo "worker exited early:" >&2; cat "$workdir/w1.log" >&2; exit 1; }
    sleep 0.2
done
[ -n "$addr" ] || { echo "no serving line in:" >&2; cat "$workdir/w1.log" >&2; exit 1; }
echo "chaos-smoke: worker on $addr (cell.exec panic armed)"

# shellcheck disable=SC2086
FI_SPEC="dispatch.stream:cut=1:times=2" \
    "$workdir/gdpsim" $SCALE sweep $GRID -workers "$addr" \
    -json "$workdir/fleet.json" >/dev/null
cmp "$workdir/ref.json" "$workdir/fleet.json" || {
    echo "fleet rows under chaos differ from the reference"; exit 1; }
echo "chaos-smoke: fleet rows byte-identical under cut streams and a worker panic"

# The worker is still alive and its telemetry accounts the chaos: every
# injection point is exposed, cell.exec actually fired, and the panic was
# served as a retried cell rather than a dead worker.
kill -0 "$w1_pid" 2>/dev/null || { echo "worker died of its injected panic"; exit 1; }
metrics=$(curl -fsS "http://$addr/metrics")
for point in disk.read disk.write dispatch.send dispatch.stream cell.exec runner.job; do
    echo "$metrics" | grep -q "gdpsim_fault_injected_total{point=\"$point\"}" || {
        echo "worker /metrics missing injection point $point"; exit 1; }
done
fired=$(echo "$metrics" | sed -n 's/^gdpsim_fault_injected_total{point="cell.exec"} \([0-9][0-9]*\).*/\1/p')
[ "${fired:-0}" -ge 1 ] || { echo "cell.exec injection never fired on the worker"; exit 1; }
echo "$metrics" | grep -q 'gdpsim_dispatch_served_cells_total{outcome="panic"}' || {
    echo "worker /metrics missing the panic outcome"; exit 1; }
echo "chaos-smoke: worker survived, fault counters moved (cell.exec=$fired)"

echo "chaos-smoke: ok"
