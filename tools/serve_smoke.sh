#!/usr/bin/env bash
# Serving smoke test: a real genax_serve daemon on a Unix socket,
# exercised end to end from the outside — byte-identity of the served
# SAM against an offline run, 8 concurrent load-generator clients,
# the admission-control shed path, the stats round trip, and a clean
# SIGTERM shutdown with the serving ledger on stderr. CI runs this
# under ASan+UBSan so every socket/batcher path is also a
# memory-safety probe.
#
# Usage: tools/serve_smoke.sh genax_serve genax_client genax_align
#        [genax_index]
# With genax_index the daemon serves from a prebuilt snapshot (the
# load-once zero-copy path); without it, from the FASTA rebuild path.
set -u

serve_bin="${1:?usage: serve_smoke.sh genax_serve genax_client genax_align [genax_index]}"
client_bin="${2:?usage: serve_smoke.sh genax_serve genax_client genax_align [genax_index]}"
align_bin="${3:?usage: serve_smoke.sh genax_serve genax_client genax_align [genax_index]}"
index_bin="${4:-}"
for b in "$serve_bin" "$client_bin" "$align_bin"; do
    [[ -x "$b" ]] || { echo "serve-smoke: $b not executable" >&2; exit 1; }
done

tmp="$(mktemp -d)"
trap 'kill -9 "${spid:-}" 2>/dev/null; rm -rf "$tmp"' EXIT

fail=0
err() {
    echo "serve-smoke: $*" >&2
    fail=1
}

# Deterministic corpus (bash LCG, fixed seed): one contig, reads cut
# straight from it.
bases=(A C G T)
state=20240901
seq=""
for ((i = 0; i < 1500; i++)); do
    state=$(((state * 1103515245 + 12345) % 2147483648))
    seq+="${bases[$(((state >> 16) % 4))]}"
done
{
    echo ">chr1 serve smoke contig"
    fold -w 70 <<<"$seq"
} >"$tmp/ref.fa"
qual=$(printf 'I%.0s' {1..90})
for ((r = 0; r < 48; r++)); do
    printf '@read%d\n%s\n+\n%s\n' "$r" "${seq:$((r * 28)):90}" "$qual"
done >"$tmp/reads.fq"

index_args=()
if [[ -n "$index_bin" ]]; then
    "$index_bin" --ref "$tmp/ref.fa" --out "$tmp/snap.gxs" \
        --segments 4 --k 11 >/dev/null 2>"$tmp/index.log" ||
        err "snapshot build failed"
    index_args=(--index "$tmp/snap.gxs")
fi

# Offline reference run: the byte-identity target.
"$align_bin" --ref "$tmp/ref.fa" --reads "$tmp/reads.fq" \
    --out "$tmp/offline.sam" "${index_args[@]}" \
    >/dev/null 2>"$tmp/offline.log"
status=$?
((status == 0)) || err "offline baseline: exit $status, want 0"

sock="$tmp/serve.sock"
"$serve_bin" --ref "$tmp/ref.fa" --listen "unix:$sock" \
    "${index_args[@]}" >"$tmp/serve.out" 2>"$tmp/serve.log" &
spid=$!

# 1. Byte-identity: one client streams the corpus in odd-sized
#    requests; the written SAM must equal the offline run exactly.
timeout 60 "$client_bin" --connect "unix:$sock" \
    --reads "$tmp/reads.fq" --out "$tmp/served.sam" \
    --reads-per-request 7 2>"$tmp/client1.log"
status=$?
((status == 0)) || err "single client: exit $status, want 0"
cmp -s "$tmp/offline.sam" "$tmp/served.sam" ||
    err "served SAM differs from the offline run"

# 2. Load generator: 8 concurrent clients, zero errors expected, and
#    a latency summary line on stdout.
timeout 120 "$client_bin" --connect "unix:$sock" \
    --reads "$tmp/reads.fq" --clients 8 --repeat 6 \
    >"$tmp/load.out" 2>"$tmp/load.log"
status=$?
((status == 0)) || err "load generator: exit $status, want 0"
grep -q 'clients=8 .*errors=0' "$tmp/load.out" ||
    err "load generator did not report 8 error-free clients"
grep -q 'p99_ms=' "$tmp/load.out" ||
    err "load generator did not report tail latency"

# 3. Stats round trip: the daemon's ledger travels the protocol.
timeout 60 "$client_bin" --connect "unix:$sock" \
    --reads "$tmp/reads.fq" --out "$tmp/stats.sam" --stats \
    2>"$tmp/stats.log"
status=$?
((status == 0)) || err "stats client: exit $status, want 0"
grep -q 'batches:' "$tmp/stats.log" ||
    err "stats reply carries no batch ledger"

# 4. Clean shutdown: SIGTERM exits 0 with the serving ledger (tenant
#    lines and the three latency histograms) on stderr.
kill -TERM "$spid"
wait "$spid"
status=$?
((status == 0)) || err "daemon shutdown: exit $status, want 0"
spid=""
grep -q 'served .* connections' "$tmp/serve.log" ||
    err "no serving ledger on the daemon's stderr"
grep -q 'queue-wait:' "$tmp/serve.log" ||
    err "no queue-wait histogram in the ledger"

# 5. Admission control, shed mode: a tiny queue with
#    --reject-when-full and a stalled batch deadline must shed at
#    least one request with a clean error while the daemon survives.
"$serve_bin" --ref "$tmp/ref.fa" --listen "unix:$sock" \
    "${index_args[@]}" --queue-reads 8 --reject-when-full \
    --batch-reads 100000 --batch-wait-ms 2000 \
    >"$tmp/shed.out" 2>"$tmp/shed.log" &
spid=$!
timeout 120 "$client_bin" --connect "unix:$sock" \
    --reads "$tmp/reads.fq" --clients 4 --repeat 2 \
    --reads-per-request 16 >"$tmp/shed_load.out" 2>"$tmp/shed_load.log"
shed_status=$?
kill -TERM "$spid"
wait "$spid"
status=$?
((status == 0)) || err "shed-mode daemon: exit $status, want 0"
spid=""
if ((shed_status == 0)); then
    err "shed mode: expected at least one rejected request"
fi
grep -q 'resource-exhausted\|serve queue full' "$tmp/shed_load.log" ||
    err "shed mode: no ResourceExhausted diagnostic on the client"

if ((fail)); then
    echo "serve-smoke: FAILED" >&2
    exit 1
fi
echo "serve-smoke: OK"
