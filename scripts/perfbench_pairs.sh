#!/usr/bin/env bash
# Paired end-to-end benchmark runs of two source trees.
#
# Usage:
#   scripts/perfbench_pairs.sh <tree-A> <tree-B> <workload> <seed> <pairs>
#
#   tree-A / tree-B   two checkouts of this repository (e.g. the parent
#                     commit and the change, exported with `git archive`
#                     into directories whose paths have the same length:
#                     the directory's name alone moves code placement)
#   workload          a perfbench workload: kernel or serve
#   seed              the workload seed
#   pairs             pairs of runs; pair i runs A first when i is odd
#                     and B first when it is even
#
# Each run is the command BENCHMARK.json declares, untraced, with
# `--seconds 24`, started from the root of its tree, so each side
# builds and runs its own perfbench against its own crates. Both trees
# are built before the first run.
#
# Output, on stdout:
#   - one row per run: every end-to-end metric scaled (as perfbench
#     prints it) and unscaled (host time: a time divided by the run's
#     host factor, a rate multiplied by it; peak_heap_mb is not
#     scaled), the host factor and the failed ops;
#   - per metric, scaled and unscaled: each side's first quartile,
#     median and third quartile (linear interpolation between the
#     sorted runs), B's change of median against A's, and the number of
#     pairs B wins in the metric's better direction (ties count for
#     neither side);
#   - the address `nm` gives for the reference loop `Loop::run` in each
#     side's perfbench binary: every scaled time depends on where the
#     linker put it.
#
# Runs write their stores under each tree's target/perfbench/, which
# perfbench removes at exit. Raw result lines are kept in a temporary
# directory that is removed when the script ends.

set -euo pipefail

if [ "$#" -ne 5 ]; then
    echo "usage: $0 <tree-A> <tree-B> <workload> <seed> <pairs>" >&2
    exit 2
fi

TREE_A="$(cd "$1" && pwd)"
TREE_B="$(cd "$2" && pwd)"
WORKLOAD="$3"
SEED="$4"
PAIRS="$5"
SECONDS_PER_RUN=24
BENCH=(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --)
BINARY=perfbench/target/release/hirata-perfbench

# name, better direction, and how the host factor scales it
METRICS=(
    "setup_s lower time"
    "ops_per_s higher rate"
    "op_p50_ms lower time"
    "op_p90_ms lower time"
    "sim_mips higher rate"
    "peak_heap_mb lower none"
)

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for tree in "$TREE_A" "$TREE_B"; do
    (cd "$tree" && cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
done

echo "A: $TREE_A" >&2
echo "B: $TREE_B" >&2
echo "workload $WORKLOAD, seed $SEED, $PAIRS pairs, --seconds $SECONDS_PER_RUN" >&2

# One run of one side: the result line and perfbench's stderr line.
run() {
    local side="$1" pair="$2" tree
    if [ "$side" = A ]; then tree="$TREE_A"; else tree="$TREE_B"; fi
    (cd "$tree" && "${BENCH[@]}" --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" --trace 0 \
        >"$TMP/$side-$pair.json" 2>"$TMP/$side-$pair.err") || true
    tail -n 1 "$TMP/$side-$pair.json" >"$TMP/$side-$pair.line"
}

# The value of one metric in one run, scaled or unscaled.
value() {
    local side="$1" pair="$2" metric="$3" kind="$4" unscaled="$5" raw factor
    raw=$(jq -r ".metrics.\"$metric\".value" "$TMP/$side-$pair.line")
    factor=$(factor "$side" "$pair")
    awk -v v="$raw" -v f="$factor" -v k="$kind" -v u="$unscaled" 'BEGIN {
        if (u && k == "time") v /= f; else if (u && k == "rate") v *= f;
        printf "%.6g\n", v }'
}

factor() {
    sed -n 's/.*host times scaled by \([0-9.]*\).*/\1/p' "$TMP/$1-$2.err" | tail -n 1
}

header="pair side factor failed"
for m in "${METRICS[@]}"; do
    read -r name _ _ <<<"$m"
    header+=" $name unscaled"
done
echo "$header"

for ((p = 1; p <= PAIRS; p++)); do
    if ((p % 2)); then order="A B"; else order="B A"; fi
    for side in $order; do
        run "$side" "$p"
        if ! jq -e . "$TMP/$side-$p.line" >/dev/null 2>&1; then
            echo "error: run $side of pair $p printed no result line:" >&2
            cat "$TMP/$side-$p.err" >&2
            exit 1
        fi
        row="$p $side $(factor "$side" "$p") $(jq -r .failed "$TMP/$side-$p.line")"
        for m in "${METRICS[@]}"; do
            read -r name _ kind <<<"$m"
            row+=" $(value "$side" "$p" "$name" "$kind" 0) $(value "$side" "$p" "$name" "$kind" 1)"
        done
        echo "$row"
    done
done

# q1, median and q3 of the numbers on stdin.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   pos, lo) {
            pos = 1 + (NR - 1) * p; lo = int(pos)
            return lo == NR ? v[lo] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

echo
printf '%-24s %-32s %-32s %9s %7s\n' metric "A q1 / median / q3" "B q1 / median / q3" "B change" "B wins"
for m in "${METRICS[@]}"; do
    read -r name better kind <<<"$m"
    for unscaled in 0 1; do
        label="$name"
        if ((unscaled)); then label+=" (unscaled)"; fi
        : >"$TMP/a.txt"
        : >"$TMP/b.txt"
        wins=0
        for ((p = 1; p <= PAIRS; p++)); do
            a=$(value A "$p" "$name" "$kind" "$unscaled")
            b=$(value B "$p" "$name" "$kind" "$unscaled")
            echo "$a" >>"$TMP/a.txt"
            echo "$b" >>"$TMP/b.txt"
            if awk -v a="$a" -v b="$b" -v d="$better" \
                'BEGIN { exit !((d == "lower" && b < a) || (d == "higher" && b > a)) }'; then
                wins=$((wins + 1))
            fi
        done
        read -r a1 am a3 < <(quartiles <"$TMP/a.txt")
        read -r b1 bm b3 < <(quartiles <"$TMP/b.txt")
        change=$(awk -v a="$am" -v b="$bm" 'BEGIN { printf "%+.1f%%", a == 0 ? 0 : (b - a) / a * 100 }')
        printf '%-24s %-32s %-32s %9s %7s\n' "$label" "$a1 / $am / $a3" "$b1 / $bm / $b3" \
            "$change" "$wins/$PAIRS"
    done
done

echo
for side in A B; do
    if [ "$side" = A ]; then tree="$TREE_A"; else tree="$TREE_B"; fi
    addr=$(nm -C "$tree/$BINARY" | awk '/host::Loop::run$/ { print $1 }')
    echo "$side Loop::run at 0x${addr#"${addr%%[!0]*}"}"
done
