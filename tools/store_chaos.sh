#!/usr/bin/env bash
# Full corruption-chaos sweep over the on-disk store layer, driving
# the store_chaos harness plus the genax_index/genax_align CLI
# surface. CI runs this under ASan+UBSan: every rejected mutation is
# also a memory-safety probe. See DESIGN.md, "On-disk stores &
# durability".
#
# Usage: tools/store_chaos.sh path/to/store_chaos \
#            [path/to/genax_index [path/to/genax_align]]
#
# The CLI legs are skipped when the extra binaries are not given.
set -u

chaos="${1:?usage: store_chaos.sh path/to/store_chaos [genax_index [genax_align]]}"
index_bin="${2:-}"
align_bin="${3:-}"
[[ -x "$chaos" ]] || { echo "store-chaos: $chaos not executable" >&2; exit 1; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
err() {
    echo "store-chaos: $*" >&2
    fail=1
}

# ------------------------------------------------------------------
# 1. Harness sweeps: truncation at every section boundary, 256
#    deterministic bit flips, a presence filter missing a key under
#    valid checksums, and the kill-during-save crash sweep.
# ------------------------------------------------------------------
"$chaos" build "$tmp/snap.gxs" || err "build failed"
"$chaos" truncate "$tmp/snap.gxs" || err "truncation sweep failed"
"$chaos" bitflip "$tmp/snap.gxs" 256 7 || err "bitflip sweep failed"
"$chaos" filterhole "$tmp/snap.gxs" || err "filterhole check failed"
"$chaos" killsave "$tmp/kill" || err "killsave sweep failed"

# A second seed exercises different flip offsets without giving up
# determinism.
"$chaos" bitflip "$tmp/snap.gxs" 64 1234 || err "bitflip(seed 1234) failed"

# Exit-code contract: usage errors are 2, a missing input store is 3.
"$chaos" frobnicate >/dev/null 2>&1
[[ $? -eq 2 ]] || err "unknown subcommand: want exit 2"
"$chaos" truncate "$tmp/absent.gxs" >/dev/null 2>&1
[[ $? -eq 3 ]] || err "missing input store: want exit 3"

# ------------------------------------------------------------------
# 2. CLI leg: genax_index --verify must reject what the harness
#    corrupts, with the documented exit codes.
# ------------------------------------------------------------------
if [[ -n "$index_bin" ]]; then
    [[ -x "$index_bin" ]] || err "$index_bin not executable"
    "$index_bin" --verify "$tmp/snap.gxs" >/dev/null 2>&1 ||
        err "verify of a pristine snapshot failed"
    # Flip one payload byte far past the header.
    head -c 2000 "$tmp/snap.gxs" >"$tmp/corrupt.gxs"
    printf '\377' >>"$tmp/corrupt.gxs"
    tail -c +2002 "$tmp/snap.gxs" >>"$tmp/corrupt.gxs"
    "$index_bin" --verify "$tmp/corrupt.gxs" >/dev/null 2>"$tmp/verify.log"
    [[ $? -eq 3 ]] || err "verify of a corrupt snapshot: want exit 3"
    grep -qi 'checksum\|store' "$tmp/verify.log" ||
        err "verify diagnostic does not mention the store layer"
fi

if ((fail)); then
    echo "store-chaos: FAILED" >&2
    exit 1
fi
echo "store-chaos: OK"
