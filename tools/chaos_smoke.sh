#!/usr/bin/env bash
# Chaos smoke test: drive genax_align over a deliberately malformed
# read corpus with fault-injection sites armed, and check the CLI's
# exit-code contract and outcome-ledger arithmetic from the outside.
# CI runs this under ASan+UBSan so every absorbed fault is also a
# memory-safety probe. See DESIGN.md, "Error-handling policy".
#
# Usage: tools/chaos_smoke.sh path/to/genax_align [path/to/genax_index]
#        [path/to/genax_serve path/to/genax_client]
# The snapshot-corruption leg and genax_index's bad-flag cases run
# only when genax_index is given, genax_client's bad-flag cases only
# when genax_client is given; the daemon-kill leg (SIGKILL
# mid-batch: clean client error, no partial SAM, restart serves the
# same snapshot byte-identically) runs only when genax_serve and
# genax_client are given too.
set -u

bin="${1:?usage: chaos_smoke.sh path/to/genax_align [genax_index] [genax_serve genax_client]}"
index_bin="${2:-}"
serve_bin="${3:-}"
client_bin="${4:-}"
[[ -x "$bin" ]] || { echo "chaos-smoke: $bin not executable" >&2; exit 1; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
err() {
    echo "chaos-smoke: $*" >&2
    fail=1
}

# ------------------------------------------------------------------
# Corpus: a deterministic pseudo-random contig (bash LCG, fixed seed)
# and reads cut straight from it, with malformed records interleaved:
# a quality-length mismatch, a missing separator, and a record
# truncated at EOF.
# ------------------------------------------------------------------
bases=(A C G T)
lcg_bases() { # lcg_bases <count> <seed>: deterministic bases into $seq
    local state=$2
    seq=""
    for ((i = 0; i < $1; i++)); do
        state=$(((state * 1103515245 + 12345) % 2147483648))
        seq+="${bases[$(((state >> 16) % 4))]}"
    done
}
lcg_bases 20000 20190601
printf '>chr1 wide segmentation\n%s\n' "$(fold -w 70 <<<"$seq")" >"$tmp/ref20k.fa"
lcg_bases 1200 20180601
printf '>chr1 chaos smoke contig\n%s\n' "$(fold -w 70 <<<"$seq")" >"$tmp/ref.fa"

qual=$(printf 'I%.0s' {1..80})
{
    for ((r = 0; r < 20; r++)); do
        printf '@read%d\n%s\n+\n%s\n' "$r" "${seq:$((r * 50)):80}" "$qual"
    done
    # Malformed: quality string shorter than the sequence.
    printf '@bad_qual\n%s\n+\nIIII\n' "${seq:100:80}"
    # Malformed: separator line missing ('+' replaced by junk), the
    # reader resyncs on the next '@' header.
    printf '@bad_sep\n%s\nJUNK\n%s\n' "${seq:200:80}" "$qual"
    # One more good read after the damage, then a truncated tail.
    printf '@read_last\n%s\n+\n%s\n' "${seq:300:80}" "$qual"
    printf '@truncated\n%s\n' "${seq:400:80}"
} >"$tmp/reads.fq"

run() { # run <log> <args...> ; echoes exit status
    local log="$1"
    shift
    "$bin" "$@" >"$tmp/stdout" 2>"$log"
    echo $?
}

check_ledger() { # check_ledger <log> <sam>
    local log="$1" sam="$2"
    local reads
    reads=$(sed -n 's/^aligned \([0-9]*\) reads.*/\1/p' "$log")
    if [[ -z "$reads" ]]; then
        err "no 'aligned N reads' line in $log"
        return
    fi
    read -r mapped unmapped skipped degraded failed < <(
        sed -n 's/^ledger: \([0-9]*\) mapped, \([0-9]*\) unmapped, \([0-9]*\) skipped-malformed, \([0-9]*\) degraded, \([0-9]*\) failed$/\1 \2 \3 \4 \5/p' "$log")
    if [[ -z "${failed:-}" ]]; then
        err "no ledger line in $log"
        return
    fi
    local sum=$((mapped + unmapped + skipped + degraded + failed))
    ((sum == reads)) ||
        err "ledger does not balance: $sum != $reads reads ($log)"
    # Every non-skipped read must have produced exactly one SAM record.
    local records
    records=$(grep -cv '^@' "$sam" || true)
    ((records == reads - skipped)) ||
        err "SAM has $records records, want $((reads - skipped)) ($log)"
}

# 1. Malformed corpus, no faults: completes, skips and counts the
#    broken records, exits 1 (partial).
status=$(run "$tmp/clean.log" --ref "$tmp/ref.fa" --reads "$tmp/reads.fq" \
    --out "$tmp/clean.sam" --k 11 --max-malformed 10)
((status == 1)) || err "malformed corpus: exit $status, want 1"
check_ledger "$tmp/clean.log" "$tmp/clean.sam"
grep -q 'skipped 3 malformed records' "$tmp/clean.log" ||
    err "expected 3 skipped records reported in clean.log"

# 2. Fault storm across the accelerator layers: run must still
#    complete with a balanced ledger and exit 1.
status=$(run "$tmp/storm.log" --ref "$tmp/ref.fa" --reads "$tmp/reads.fq" \
    --out "$tmp/storm.sam" --k 11 --max-malformed 10 \
    --inject 'sillax.lane.issue:p=0.3,seed=1;genax.dram.stream:p=0.5,seed=2;seed.cam.overflow:p=0.3,seed=3;genax.pipeline.read:p=0.15,seed=4')
((status == 1)) || err "fault storm: exit $status, want 1"
check_ledger "$tmp/storm.log" "$tmp/storm.sam"

# 3. An injected IO fault is unrecoverable for the file as a whole:
#    exit 3 and the site named in the diagnostic.
status=$(run "$tmp/io.log" --ref "$tmp/ref.fa" --reads "$tmp/reads.fq" \
    --out "$tmp/io.sam" --k 11 --max-malformed 10 \
    --inject 'io.fastq.record:n=5')
((status == 3)) || err "io fault: exit $status, want 3"
grep -q 'io.fastq.record' "$tmp/io.log" ||
    err "io fault diagnostic does not name the site"

# 4. Exit-code contract edges: bad --inject spec is a usage error,
#    a missing input is unrecoverable, --help succeeds.
status=$(run "$tmp/spec.log" --ref "$tmp/ref.fa" --reads "$tmp/reads.fq" \
    --out "$tmp/x.sam" --inject 'not-a-spec')
((status == 2)) || err "bad --inject: exit $status, want 2"
status=$(run "$tmp/miss.log" --ref "$tmp/absent.fa" \
    --reads "$tmp/reads.fq" --out "$tmp/x.sam")
((status == 3)) || err "missing reference: exit $status, want 3"
grep -q 'absent.fa' "$tmp/miss.log" ||
    err "missing-file diagnostic does not name the path"
status=$(run "$tmp/help.log" --help)
((status == 0)) || err "--help: exit $status, want 0"

# 5. Strict numeric flags: every bad value is a usage error (exit 2,
#    never an abort) whose message names the flag, and no output file
#    is written.
bad_value() { # bad_value "<flag value ...>" <tool> <args...>
    local -a bad
    read -ra bad <<<"$1"
    local what="${2##*/} $1"
    shift
    rm -f "$tmp/bad.out"
    "$@" --out "$tmp/bad.out" "${bad[@]}" >/dev/null 2>"$tmp/bad.log"
    local status=$?
    ((status == 2)) || err "$what: exit $status, want 2"
    head -n 1 "$tmp/bad.log" | grep -q -- "${bad[-2]}" ||
        err "$what: usage message does not name ${bad[-2]}"
    [[ ! -e "$tmp/bad.out" ]] || err "$what: wrote an output file"
}
for v in "--segments -1" "--segments 0" "--segments 200000" "--k 0" \
    "--k 20" "--k 12x" "--engine sw --k 0" "--band 0" "--band 8193" \
    "--engine sw --band 4294967295"; do
    bad_value "$v" "$bin" --ref "$tmp/ref.fa" --reads "$tmp/reads.fq"
done
if [[ -x "$index_bin" ]]; then
    for v in "--segments -1" "--segments 0" "--segments 200000" \
        "--k 0" "--k 20" "--k 12x" "--overlap -1" "--overlap 2147483649"; do
        bad_value "$v" "$index_bin" --ref "$tmp/ref.fa"
    done
fi
# A client count past the bound is refused while parsing, before the
# load generator sizes its per-client results or starts a thread.
if [[ -x "$client_bin" ]]; then
    for v in "--clients 1025" "--clients 18446744073709551615"; do
        bad_value "$v" "$client_bin" --connect "unix:$tmp/absent.sock" \
            --reads "$tmp/reads.fq"
    done
fi

# 6. Snapshot-corruption leg: build an index snapshot, corrupt
#    it, and check both CLIs honour the contract — genax_index
#    --verify exits 3 naming the damage, and genax_align --index
#    degrades to rebuild-from-FASTA with byte-identical SAM and
#    exit 1 (partial: the run completed but not as requested).
if [[ -n "$index_bin" ]]; then
    if [[ ! -x "$index_bin" ]]; then
        err "$index_bin not executable"
    else
        "$index_bin" --ref "$tmp/ref.fa" --out "$tmp/snap.gxs"             --segments 4 --k 11             >/dev/null 2>"$tmp/index.log"
        [[ $? -eq 0 ]] || err "snapshot build failed"
        "$index_bin" --verify "$tmp/snap.gxs" >/dev/null 2>&1 ||
            err "verify of the fresh snapshot failed"

        # Baseline SAM without a snapshot, then with the intact one:
        # must be byte-identical and exit identically.
        status=$(run "$tmp/nosnap.log" --ref "$tmp/ref.fa"             --reads "$tmp/reads.fq" --out "$tmp/nosnap.sam"             --k 11 --segments 4 --max-malformed 10)
        ((status == 1)) || err "baseline (no snapshot): exit $status, want 1"
        status=$(run "$tmp/snap.log" --ref "$tmp/ref.fa"             --reads "$tmp/reads.fq" --out "$tmp/snap.sam"             --index "$tmp/snap.gxs" --max-malformed 10)
        ((status == 1)) || err "snapshot run: exit $status, want 1"
        cmp -s "$tmp/nosnap.sam" "$tmp/snap.sam" ||
            err "snapshot SAM differs from in-memory SAM"

        # Corrupt one payload byte; --verify must reject with exit 3.
        cp "$tmp/snap.gxs" "$tmp/corrupt.gxs"
        printf 'ÿ' | dd of="$tmp/corrupt.gxs" bs=1 seek=2000             conv=notrunc status=none
        "$index_bin" --verify "$tmp/corrupt.gxs"             >/dev/null 2>"$tmp/verify.log"
        [[ $? -eq 3 ]] || err "verify of corrupt snapshot: want exit 3"
        grep -q 'checksum' "$tmp/verify.log" ||
            err "verify diagnostic does not mention the checksum"

        # The aligner must absorb the same corruption: degraded
        # rebuild, identical SAM, exit 1, and a note on stderr.
        status=$(run "$tmp/degraded.log" --ref "$tmp/ref.fa"             --reads "$tmp/reads.fq" --out "$tmp/degraded.sam"             --index "$tmp/corrupt.gxs" --max-malformed 10)
        ((status == 1)) || err "corrupt snapshot run: exit $status, want 1"
        grep -q 'rebuilding from FASTA' "$tmp/degraded.log" ||
            err "no degradation note for the corrupt snapshot"
        cmp -s "$tmp/nosnap.sam" "$tmp/degraded.sam" ||
            err "degraded-rebuild SAM differs from in-memory SAM"
    fi
fi

# 6b. Segment count and overlap are snapshot metadata: the most
#     segments with the widest overlap still build one index, so a
#     20 kbp reference indexes and verifies within a 1 GB address
#     space. A sanitizer build cannot start under that limit; it runs
#     the leg without one. The build reports the 20,000 segments it
#     stores, not the 100,000 asked for (the rest would start past
#     the end).
if [[ -x "$index_bin" ]]; then
    limit="ulimit -v 1048576;"
    { (ulimit -v 1048576 && "$index_bin" --help) >/dev/null 2>&1; } 2>/dev/null ||
        limit=""
    for args in "--ref $tmp/ref20k.fa --out $tmp/wide.gxs --segments 100000 --overlap 2147483648" \
        "--verify $tmp/wide.gxs"; do
        bash -c "$limit \"\$@\"" _ "$index_bin" $args >"$tmp/wide.log" 2>&1
        status=$?
        ((status == 0)) || err "genax_index $args under 1 GB: exit $status, want 0"
        [[ $args == --verify* ]] || grep -q "20000 segments" "$tmp/wide.log" ||
            err "genax_index $args: no '20000 segments' in its output"
    done
fi

# 7. Paired-end leg: FR mates cut from the contig (fragment 300,
#    read 2 reverse-complemented). Either engine, one batch on one
#    thread or batches of 7 templates on two, with or without the
#    snapshot, gives the same SAM: two records per template, a
#    balanced ledger, exit 0. A pipeline-read storm still completes
#    (exit 1, balanced), and mate files of different lengths are
#    unrecoverable (exit 3) before any SAM file exists.
revcomp() { rev <<<"$1" | tr ACGT TGCA; }
for ((t = 0; t < 14; t++)); do
    p=$((t * 60))
    printf '@pair%d/1\n%s\n+\n%s\n' "$t" "${seq:$p:80}" "$qual" >&3
    printf '@pair%d/2\n%s\n+\n%s\n' "$t" \
        "$(revcomp "${seq:$((p + 220)):80}")" "$qual" >&4
done 3>"$tmp/r1.fq" 4>"$tmp/r2.fq"
head -n 52 "$tmp/r2.fq" >"$tmp/r2_short.fq"
paired_snap=()
[[ -e "$tmp/snap.gxs" ]] && paired_snap=(--index "$tmp/snap.gxs")
for engine in genax sw; do
    ref_sam=""
    for index in none snap; do
        [[ $index == snap && ${#paired_snap[@]} -eq 0 ]] && continue
        extra=()
        [[ $index == snap ]] && extra=("${paired_snap[@]}")
        for setting in "0 1" "7 2"; do
            read -r batch threads <<<"$setting"
            tag="paired_${engine}_${index}_b${batch}_t${threads}"
            status=$(run "$tmp/$tag.log" --ref "$tmp/ref.fa" \
                --reads "$tmp/r1.fq" --reads2 "$tmp/r2.fq" \
                --out "$tmp/$tag.sam" --engine "$engine" --k 11 \
                --segments 4 --batch-reads "$batch" --threads "$threads" \
                "${extra[@]}")
            ((status == 0)) || err "$tag: exit $status, want 0"
            check_ledger "$tmp/$tag.log" "$tmp/$tag.sam"
            records=$(grep -cv '^@' "$tmp/$tag.sam" || true)
            ((records == 28)) || err "$tag: $records records, want 28"
            if [[ -z "$ref_sam" ]]; then
                ref_sam="$tmp/$tag.sam"
            else
                cmp -s "$ref_sam" "$tmp/$tag.sam" ||
                    err "$tag: SAM differs from ${ref_sam##*/}"
            fi
        done
    done
done
grep -q '^GenAx model:' "$tmp/paired_genax_none_b0_t1.log" ||
    err "paired GenAx run printed no model line"
status=$(run "$tmp/paired_storm.log" --ref "$tmp/ref.fa" \
    --reads "$tmp/r1.fq" --reads2 "$tmp/r2.fq" --out "$tmp/paired_storm.sam" \
    --k 11 --segments 4 --batch-reads 7 --threads 2 \
    --inject 'genax.pipeline.read:p=0.15,seed=4')
((status == 1)) || err "paired storm: exit $status, want 1"
check_ledger "$tmp/paired_storm.log" "$tmp/paired_storm.sam"
status=$(run "$tmp/paired_short.log" --ref "$tmp/ref.fa" \
    --reads "$tmp/r1.fq" --reads2 "$tmp/r2_short.fq" \
    --out "$tmp/paired_short.sam" --k 11)
((status == 3)) || err "mismatched mate files: exit $status, want 3"
grep -q 'mate files differ' "$tmp/paired_short.log" ||
    err "mismatched mate files: no diagnostic"
[[ ! -e "$tmp/paired_short.sam" ]] ||
    err "mismatched mate files left a SAM file"

# 8. Daemon-kill leg: SIGKILL genax_serve while a client's request is
#    parked in the batcher. The client must fail cleanly (exit 3, no
#    partial SAM, no hang — the checksummed framing means a torn
#    stream is never *accepted*), and a restarted daemon on the same
#    snapshot must serve SAM byte-identical to the offline
#    `genax_align --index` run.
if [[ -n "$serve_bin" && -n "$client_bin" && -n "$index_bin" ]]; then
    if [[ ! -x "$serve_bin" || ! -x "$client_bin" ]]; then
        err "$serve_bin / $client_bin not executable"
    else
        sock="$tmp/serve.sock"
        # A clean corpus for the serve legs (the client refuses to
        # stream the malformed records the CLI legs exercise).
        for ((r = 0; r < 40; r++)); do
            printf '@sread%d\n%s\n+\n%s\n' \
                "$r" "${seq:$((r * 25)):80}" "$qual"
        done >"$tmp/serve_reads.fq"

        # Offline baseline over the same snapshot: the byte-identity
        # reference for the restarted daemon.
        status=$(run "$tmp/soffline.log" --ref "$tmp/ref.fa" \
            --reads "$tmp/serve_reads.fq" --out "$tmp/soffline.sam" \
            --index "$tmp/snap.gxs")
        ((status == 0)) || err "serve offline baseline: exit $status, want 0"

        # (a) A daemon configured so requests park in the batcher
        # (batch never fills, deadline far away), killed mid-batch.
        "$serve_bin" --ref "$tmp/ref.fa" --index "$tmp/snap.gxs" \
            --listen "unix:$sock" --batch-reads 100000 \
            --batch-wait-ms 60000 \
            >"$tmp/serve_kill.out" 2>"$tmp/serve_kill.log" &
        spid=$!
        timeout 30 "$client_bin" --connect "unix:$sock" \
            --reads "$tmp/serve_reads.fq" --out "$tmp/killed.sam" \
            2>"$tmp/killed.log" &
        cpid=$!
        sleep 1 # client connected; its first request is parked
        kill -9 "$spid" 2>/dev/null
        wait "$cpid"
        status=$?
        ((status == 3)) ||
            err "daemon killed mid-batch: client exit $status, want 3 ($(cat "$tmp/killed.log"))"
        [[ ! -e "$tmp/killed.sam" ]] ||
            err "client left a partial SAM after the daemon died"
        wait "$spid" 2>/dev/null

        # (b) Restart on the same snapshot and socket path (the
        # listener unlinks the stale socket file): the served SAM
        # must be byte-identical to the offline --index run.
        "$serve_bin" --ref "$tmp/ref.fa" --index "$tmp/snap.gxs" \
            --listen "unix:$sock" \
            >"$tmp/serve2.out" 2>"$tmp/serve2.log" &
        spid=$!
        timeout 60 "$client_bin" --connect "unix:$sock" \
            --reads "$tmp/serve_reads.fq" --out "$tmp/served.sam" \
            --reads-per-request 7 2>"$tmp/served.log"
        status=$?
        ((status == 0)) ||
            err "restarted daemon: client exit $status, want 0 ($(cat "$tmp/served.log"))"
        cmp -s "$tmp/soffline.sam" "$tmp/served.sam" ||
            err "served SAM differs from the offline --index run"
        kill -TERM "$spid" 2>/dev/null
        wait "$spid"
        status=$?
        ((status == 0)) ||
            err "restarted daemon: shutdown exit $status, want 0"
        grep -q 'served .* connections' "$tmp/serve2.log" ||
            err "no serving ledger on the restarted daemon's stderr"
    fi
fi

if ((fail)); then
    echo "chaos-smoke: FAILED" >&2
    exit 1
fi
echo "chaos-smoke: OK"
