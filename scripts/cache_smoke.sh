#!/bin/sh
# cache_smoke.sh is the end-to-end check for the bounded result cache: it runs
# the same small sweep grid three times with the real binary — unbounded, then
# under a deliberately starved -cache-mem-mb budget with a disk spill tier,
# then again against the warm disk tier — and fails unless all three exports
# are byte-identical. A sweep whose unique entries overflow the budget must
# evict to disk and re-serve from it, never recompute into different rows.
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

$GO build -o "$workdir/gdpsim" ./cmd/gdpsim

grid="-workloads 1 -instructions 2000 -interval 2000"
sweep="sweep -cores 2 -mixes H -prb 8,16,32,64 -techniques GDP-O"

# shellcheck disable=SC2086  # grid/sweep are intentionally word-split flags
"$workdir/gdpsim" $grid $sweep -json "$workdir/base.json" >/dev/null

# 0.001 MiB ~= 1 KB: far less than the grid's unique entries, forcing
# evictions mid-sweep.
# shellcheck disable=SC2086
"$workdir/gdpsim" -cache-dir "$workdir/cache" -cache-mem-mb 0.001 \
    $grid $sweep -json "$workdir/bounded.json" >/dev/null

cmp -s "$workdir/base.json" "$workdir/bounded.json" || {
    echo "cache-smoke: bounded sweep rows differ from unbounded"
    diff "$workdir/base.json" "$workdir/bounded.json" || true
    exit 1
}

# The spill tier must actually hold entries (sharded layout dir/ab/<key>.entry).
spilled=$(find "$workdir/cache" -name '*.entry' | wc -l)
[ "$spilled" -gt 0 ] || { echo "cache-smoke: disk tier holds no entries"; exit 1; }

# A second bounded run re-serves evicted entries from the disk tier.
# shellcheck disable=SC2086
"$workdir/gdpsim" -cache-dir "$workdir/cache" -cache-mem-mb 0.001 \
    $grid $sweep -json "$workdir/again.json" >/dev/null
cmp -s "$workdir/base.json" "$workdir/again.json" || {
    echo "cache-smoke: repeat bounded sweep rows differ"; exit 1; }

echo "cache-smoke: ok ($spilled entries spilled, rows byte-identical)"
