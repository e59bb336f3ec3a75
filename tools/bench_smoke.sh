#!/usr/bin/env bash
# Bench smoke: run every bench binary once, so the figure benches'
# internal checks and the micro benches' pre-timing agreement checks
# (SkipWithError) run on every change. Each fig*/table*/ablation*
# bench runs once as built; each micro_* runs every leg with
# --benchmark_min_time=0.01. A bench fails the smoke on a non-zero
# exit or on an "ERROR OCCURRED" line in its output; the one skip
# that is not an error is a dispatch tier the host CPU lacks ("tier
# not supported on this host").
#
# Usage: tools/bench_smoke.sh <bench-dir>
#   e.g. tools/bench_smoke.sh build-release/bench
set -u

dir="${1:?usage: bench_smoke.sh <bench-dir>}"
[[ -d "$dir" ]] || { echo "bench-smoke: $dir is not a directory" >&2; exit 1; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
ran=0
for bench in "$dir"/fig* "$dir"/table* "$dir"/ablation* "$dir"/micro_*; do
    [[ -f "$bench" && -x "$bench" ]] || continue
    name="${bench##*/}"
    args=()
    [[ "$name" == micro_* ]] && args=(--benchmark_min_time=0.01)
    start=$SECONDS
    "$bench" "${args[@]}" >"$tmp/$name.log" 2>&1
    status=$?
    ran=$((ran + 1))
    if ((status != 0)); then
        echo "bench-smoke: $name exited $status" >&2
        tail -n 20 "$tmp/$name.log" >&2
        fail=1
    elif grep 'ERROR OCCURRED' "$tmp/$name.log" |
        grep -v 'tier not supported on this host' >"$tmp/errors"; then
        echo "bench-smoke: $name reported an error:" >&2
        cat "$tmp/errors" >&2
        fail=1
    fi
    echo "bench-smoke: $name exit $status ($((SECONDS - start)) s)"
done

if ((ran == 0)); then
    echo "bench-smoke: no bench binaries in $dir" >&2
    exit 1
fi
((fail == 0)) && echo "bench-smoke: OK ($ran benches)"
exit "$fail"
