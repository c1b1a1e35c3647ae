#!/usr/bin/env bash
# Smoke-test the `hirata serve` daemon end to end:
#
#   1. boot the daemon on a random port with a fresh artifact store,
#   2. run the same Figure 6 sweep directly (`hirata lab`) and through
#      the daemon (`hirata submit`) and require byte-identical tables,
#   3. resubmit, in pool and then in interleaved mode, and require each
#      answer to come from the artifact store with the table unchanged
#      and its job keys from the daemon's submission memo,
#   4. shut the daemon down gracefully.
#
# Used by the `serve-smoke` CI job; also runnable locally.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=target/release/hirata
PROGRAM=examples/asm/fig6_while.s
PORT=$((20000 + RANDOM % 20000))
ADDR="127.0.0.1:${PORT}"
WORK=$(mktemp -d)

cleanup() {
    if [[ -n "${SERVE_PID:-}" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill "$SERVE_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# Requires `/stats` to count $1 jobs answered from the store, and $2
# hits and $3 misses of the submission memo.
check_stats() {
    "$BIN" stats --addr "$ADDR" > "$WORK/stats.txt"
    local memo
    memo=$(grep -A3 '"memo"' "$WORK/stats.txt" || true)
    grep -q "\"jobs_cached\": $1," "$WORK/stats.txt" \
        && grep -q "\"hits\": $2," <<<"$memo" && grep -q "\"misses\": $3," <<<"$memo" \
        || { echo "serve-smoke: want $1 cached jobs, $2 memo hits and $3 memo misses"; \
             cat "$WORK/stats.txt"; exit 1; }
}

cargo build --release -p hirata-cli

"$BIN" serve --addr "$ADDR" --jobs 2 \
    --cache-dir "$WORK/cache" --trace-dir "$WORK/traces" &
SERVE_PID=$!

# Wait for the daemon to answer /stats.
for _ in $(seq 1 50); do
    if "$BIN" stats --addr "$ADDR" >/dev/null 2>&1; then
        break
    fi
    sleep 0.2
done
"$BIN" stats --addr "$ADDR" >/dev/null

# Direct vs remote: byte-identical tables.
"$BIN" lab "$PROGRAM" --slots 1,2,4 --ls 1,2 --jobs 2 --no-cache > "$WORK/direct.txt"
"$BIN" submit "$PROGRAM" --slots 1,2,4 --ls 1,2 --addr "$ADDR" > "$WORK/remote.txt"
diff -u "$WORK/direct.txt" "$WORK/remote.txt"
echo "serve-smoke: remote table matches direct run"

# Resubmission: a memo hit answered from the artifact store, bytes
# unchanged.
"$BIN" submit "$PROGRAM" --slots 1,2,4 --ls 1,2 --addr "$ADDR" > "$WORK/cached.txt"
diff -u "$WORK/direct.txt" "$WORK/cached.txt"
check_stats 6 1 1
echo "serve-smoke: resubmission served from the memo and the artifact store"

# Interleaved mode agrees with pool mode: the same program and grid, so
# again a memo hit answered from the store with the same numbers.
"$BIN" submit "$PROGRAM" --slots 1,2,4 --ls 1,2 --mode interleaved --addr "$ADDR" \
    > "$WORK/interleaved.txt"
# Only the header worker count differs between the two modes.
diff -u <(tail -n +2 "$WORK/direct.txt") <(tail -n +2 "$WORK/interleaved.txt")
check_stats 12 2 1
echo "serve-smoke: interleaved mode matches, from the memo and the artifact store"

"$BIN" shutdown --addr "$ADDR"
wait "$SERVE_PID"
echo "serve-smoke: daemon shut down cleanly"
