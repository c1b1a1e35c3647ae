#!/usr/bin/env bash
# Interleaved A/B benchmark harness.
#
# Usage:
#   scripts/ab_bench.sh <binary-A> <binary-B> [rounds] [points]
#
#   binary-A / binary-B   two builds of the throughput_check example
#                         (e.g. baseline worktree vs working tree)
#   rounds                paired rounds to run (default 11, odd keeps
#                         the median a real sample)
#   points                comma-separated grid keys passed to
#                         --points (default: the 12 paper points, the
#                         three EXPERIMENTS.md workloads at s=1,2,4,8)
#
# Methodology: back-to-back block runs ("all of A, then all of B")
# fold any slow machine drift — thermal throttling, a background job
# starting halfway through — entirely into one side, which on a shared
# box routinely fabricates or hides several percent. This harness
# instead measures every point with A and B back to back, one probe
# process per point and binary (and swaps which one goes first on
# every other round, cancelling any fixed cost of going first), then
# forms the B/A ratio *per point within each round*, so the two sides
# of a ratio are at most a quarter of a second apart and saw the same
# machine weather. (Pairing whole 12-point probes would put most of a
# second between them; on a 2-vCPU VM whose speed doubles or halves
# within that, the same binary against itself read 0.94x-1.03x over
# 11 rounds. See EXPERIMENTS.md, "One paired perf gate".) The
# reported statistic per grid point is the MEDIAN of the per-round
# paired ratios — robust to a minority of disturbed rounds in a way a
# mean of ratios is not — plus the geometric mean of those medians
# across points as the headline. Beside each median the table prints
# the first and third quartiles of the same ratios (linear
# interpolation between the sorted rounds), so a point's spread shows
# whether its move is more than noise.
#
# Each probe (`throughput_check --probe --points <key>`) prints
# `key<TAB>cycles/sec` from a short minimum-of-runs estimate;
# repetition and pairing live here, not in the probe.
#
# Exit status: 1 when the geomean is below FLOOR (0.95), that is when
# B reads more than 5% slower than A; 2 on a usage error, including a
# point that either probe prints no result for. CI's time gate
# (scripts/perf_gate.sh) is this verdict over the default points;
# EXPERIMENTS.md ("One paired perf gate") has its calibration.

set -euo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <binary-A> <binary-B> [rounds] [points]" >&2
    exit 2
fi

FLOOR=0.95
BIN_A="$1"
BIN_B="$2"
ROUNDS="${3:-11}"
POINTS="${4:-raytrace/s1,livermore-k1/s1,fig6-list/s1,raytrace/s2,livermore-k1/s2,fig6-list/s2,raytrace/s4,livermore-k1/s4,fig6-list/s4,raytrace/s8,livermore-k1/s8,fig6-list/s8}"

for bin in "$BIN_A" "$BIN_B"; do
    if [ ! -x "$bin" ]; then
        echo "error: $bin is not an executable file" >&2
        exit 2
    fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "A: $BIN_A" >&2
echo "B: $BIN_B" >&2
echo "points: $POINTS, rounds: $ROUNDS" >&2

for ((r = 1; r <= ROUNDS; r++)); do
    # Swap who goes first at each point on every other round, so
    # neither binary always pays or pockets going first (page cache,
    # frequency ramp).
    if ((r % 2)); then order="A B"; else order="B A"; fi
    for point in ${POINTS//,/ }; do
        for side in $order; do
            if [ "$side" = A ]; then bin="$BIN_A"; else bin="$BIN_B"; fi
            line="$("$bin" --probe --points "$point")"
            # A probe built before unknown keys were errors prints
            # nothing for one, so check the key here too: a missing
            # point is a usage error, not a regression.
            if [ "${line%%$'\t'*}" != "$point" ]; then
                echo "error: $bin printed no result for point '$point'" >&2
                echo "usage: $0 <binary-A> <binary-B> [rounds] [points]" >&2
                exit 2
            fi
            echo "$line" >>"$TMP/${side}_$r.tsv"
        done
    done
    echo "round $r/$ROUNDS done" >&2
done

median() {
    sort -n | awk '{ v[NR] = $1 }
        END {
            if (NR == 0) { print "nan"; exit 1 }
            if (NR % 2) print v[(NR + 1) / 2];
            else print (v[NR / 2] + v[NR / 2 + 1]) / 2;
        }'
}

# q1, median and q3 of the numbers on stdin.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   pos, lo) {
            pos = 1 + (NR - 1) * p; lo = int(pos)
            return lo == NR ? v[lo] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.6f %.6f %.6f\n", q(0.25), q(0.5), q(0.75) }'
}

printf '%-18s %12s %12s %10s %14s %10s\n' "point" "median A" "median B" "q1 B/A" "median B/A" "q3 B/A"

log_sum=0
n_points=0
while IFS=$'\t' read -r key _; do
    safe="${key//\//_}"
    : >"$TMP/ratios_$safe.txt"
    : >"$TMP/a_$safe.txt"
    : >"$TMP/b_$safe.txt"
    for ((r = 1; r <= ROUNDS; r++)); do
        a=$(awk -F'\t' -v k="$key" '$1 == k { print $2 }' "$TMP/A_$r.tsv")
        b=$(awk -F'\t' -v k="$key" '$1 == k { print $2 }' "$TMP/B_$r.tsv")
        if [ -z "$a" ] || [ -z "$b" ]; then
            echo "error: point $key missing from round $r output" >&2
            exit 2
        fi
        echo "$a" >>"$TMP/a_$safe.txt"
        echo "$b" >>"$TMP/b_$safe.txt"
        awk -v a="$a" -v b="$b" 'BEGIN { printf "%.6f\n", b / a }' >>"$TMP/ratios_$safe.txt"
    done
    med_ratio=$(median <"$TMP/ratios_$safe.txt")
    read -r q1_ratio _ q3_ratio < <(quartiles <"$TMP/ratios_$safe.txt")
    med_a=$(median <"$TMP/a_$safe.txt")
    med_b=$(median <"$TMP/b_$safe.txt")
    printf '%-18s %12.0f %12.0f %9.3fx %13.3fx %9.3fx\n' "$key" "$med_a" "$med_b" \
        "$q1_ratio" "$med_ratio" "$q3_ratio"
    log_sum=$(awk -v s="$log_sum" -v r="$med_ratio" 'BEGIN { printf "%.9f", s + log(r) }')
    n_points=$((n_points + 1))
done <"$TMP/A_1.tsv"

geomean=$(awk -v s="$log_sum" -v n="$n_points" 'BEGIN { printf "%.3f", exp(s / n) }')
echo
echo "geomean of per-point median B/A ratios: ${geomean}x"
if awk -v g="$geomean" -v f="$FLOOR" 'BEGIN { exit !(g < f) }'; then
    echo "B is below the ${FLOOR}x floor" >&2
    exit 1
fi
