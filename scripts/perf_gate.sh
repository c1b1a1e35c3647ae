#!/usr/bin/env bash
# CI's time gate: the throughput probe built at two revisions, paired.
#
# Usage:
#   scripts/perf_gate.sh <base-rev> <change-rev>
#
# Exports each revision with `git archive` into two sibling directories
# whose paths have the same length (the directory name alone moves
# where the linker places code), builds the `throughput_check` example
# in each, and runs scripts/ab_bench.sh for ROUNDS alternating rounds
# over its 12 default points with the base as A and the change as B.
# The table goes to stdout. The exit status is ab_bench.sh's: 1 when
# the geomean of the per-point median B/A ratios is below 0.95.

set -euo pipefail

ROUNDS=11

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <base-rev> <change-rev>" >&2
    exit 2
fi

HERE="$(cd "$(dirname "$0")" && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for side in base head; do
    if [ "$side" = base ]; then rev="$1"; else rev="$2"; fi
    mkdir "$WORK/$side"
    git archive "$rev" | tar -x -C "$WORK/$side"
    echo "building $side ($(git rev-parse --short "$rev"))" >&2
    cargo build --release -q -p hirata-bench --example throughput_check \
        --manifest-path "$WORK/$side/Cargo.toml" --target-dir "$WORK/$side/target"
done

"$HERE/ab_bench.sh" \
    "$WORK/base/target/release/examples/throughput_check" \
    "$WORK/head/target/release/examples/throughput_check" \
    "$ROUNDS"
