#!/usr/bin/env bash
# Byte-identity check of two builds' command-line outputs.
#
# Usage:
#   scripts/identity_check.sh <bin-dir-A> <bin-dir-B>
#
#   bin-dir-A / bin-dir-B   directories holding a `hirata` and a `repro`
#                           binary each, e.g. the target/release
#                           directories of two checkouts
#
# Runs each side's binaries over one matrix, from the root of this
# repository:
#   - `repro --quick all --no-cache`;
#   - for every examples/asm/*.s at slots 1, 2, 4, 8 and issue widths
#     1, 2, 4: `hirata run` plain, with `--trace`, `--no-standby`,
#     `--private-fetch` and `--max-cycles 100`, and `hirata trace
#     --format text`.
# Each output is kept as digests of its stdout and stderr and its exit
# status, and the two sides are compared output by output. The
# engine's wall-clock times (` in 0.02s` at the end of a `[lab]` line
# on stderr) are taken out of stderr before its digest.
#
# Prints how many outputs matched and names the first one that
# differs. Exit status: 0 when every output matches, 1 on any
# difference, 2 on a usage error.

set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <bin-dir-A> <bin-dir-B>" >&2
    exit 2
fi

for dir in "$1" "$2"; do
    for bin in hirata repro; do
        if [ ! -x "$dir/$bin" ]; then
            echo "error: $dir/$bin is not an executable file" >&2
            exit 2
        fi
    done
done
DIR_A="$(cd "$1" && pwd)"
DIR_B="$(cd "$2" && pwd)"

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# digest <name> <binary> <args...>: one line, the output's name, then
# the digests of its stdout and stderr and its exit status.
digest() {
    local name="$1"
    shift
    local out err
    out="$({ "$@" 2>"$TMP/stderr" && echo 0 >"$TMP/status" || echo "$?" >"$TMP/status"; } \
        | sha256sum | cut -c1-64)"
    err="$(sed -E 's/ in [0-9.]+s$//' "$TMP/stderr" | sha256sum | cut -c1-64)"
    printf '%s\t%s %s %s\n' "$name" "$out" "$err" "$(cat "$TMP/status")"
}

# matrix <bin-dir>: the digest line of every output, in a fixed order.
matrix() {
    local hirata="$1/hirata"
    digest "repro --quick all --no-cache" "$1/repro" --quick all --no-cache
    for prog in examples/asm/*.s; do
        for slots in 1 2 4 8; do
            for width in 1 2 4; do
                local shape=(--slots "$slots" --width "$width")
                for flag in "" --trace --no-standby --private-fetch "--max-cycles 100"; do
                    # shellcheck disable=SC2086 # the flag splits into words
                    digest "hirata run $prog ${shape[*]} $flag" \
                        "$hirata" run "$prog" "${shape[@]}" $flag
                done
                digest "hirata trace $prog ${shape[*]} --format text" \
                    "$hirata" trace "$prog" "${shape[@]}" --format text
            done
        done
    done
}

echo "A: $DIR_A" >&2
matrix "$DIR_A" >"$TMP/a"
echo "B: $DIR_B" >&2
matrix "$DIR_B" >"$TMP/b"

# Both sides list the same outputs in the same order: line n of one
# pairs with line n of the other.
total="$(wc -l <"$TMP/a")"
matched="$(awk 'NR == FNR { a[FNR] = $0; next } $0 == a[FNR] { n++ } END { print n + 0 }' \
    "$TMP/a" "$TMP/b")"
echo "$matched of $total outputs match"
if [ "$matched" -ne "$total" ]; then
    first="$(awk -F '\t' 'NR == FNR { a[FNR] = $2; next } $2 != a[FNR] { print $1; exit }' \
        "$TMP/a" "$TMP/b")"
    echo "first difference: $first"
    exit 1
fi
