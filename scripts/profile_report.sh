#!/usr/bin/env bash
# Flat profiles from a sample file written by the sampling profiler
# (crates/bench/examples/sample_profile.rs).
#
# Usage:
#   scripts/profile_report.sh <profile-file> [top]
#
#   profile-file   the file sample_profile wrote: a header naming the
#                  executable and libc's range, then one sampled
#                  address per line, in hex, less the executable's load
#                  base
#   top            rows per table (default 25)
#
# Addresses inside the executable go through `addr2line -f -i -C`, so
# the executable must still be the one that ran; build it with
# CARGO_PROFILE_RELEASE_DEBUG=2 for line tables. Addresses inside libc
# are named by the nearest `nm -D` symbol at or below them. Anything
# else (the dynamic loader, the vDSO, other libraries) is counted as
# `other`.
#
# Output, on stdout: the sample counts by region, then five tables of
# samples and shares of all samples: executable samples by machine
# phase, by outermost function (the function the sampled code was
# inlined into), by innermost function (the inlined function itself),
# and by source line, and libc samples by symbol.
#
# A sample's machine phase is the frame inlined directly into the
# cycle kernel, `Machine::step_impl` or `Machine::step_and_jump`
# (`issue_phase`, `arbitrate`, `FetchSystem::begin_cycle`, `try_jump`,
# ...), found in its inlining chain; a sample in the kernel's own code
# is `(kernel itself)`, and one in a function the kernel calls out of
# line is named by that function, marked `(out of line)`, since the
# chain does not show its caller.

set -euo pipefail

if [ "$#" -lt 1 ] || [ "$#" -gt 2 ]; then
    echo "usage: $0 <profile-file> [top]" >&2
    exit 2
fi
PROFILE="$1"
TOP="${2:-25}"

EXE=$(sed -n 's/^exe //p' "$PROFILE")
read -r LIBC LIBC_LO LIBC_HI LIBC_BASE < <(sed -n 's/^libc //p' "$PROFILE") || true
if [ -z "$EXE" ] || [ ! -x "$EXE" ]; then
    echo "error: the profiled executable '$EXE' is gone" >&2
    exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Distinct addresses with their sample counts.
grep -E '^[0-9a-f]+$' "$PROFILE" | sort | uniq -c | awk '{ print $2, $1 }' >"$TMP/counts"
TOTAL=$(awk '{ n += $2 } END { print n + 0 }' "$TMP/counts")
if [ "$TOTAL" -eq 0 ]; then
    echo "no samples in $PROFILE" >&2
    exit 1
fi

# Split the addresses by region: libc offsets from its load base, the
# rest as executable addresses (the executable's own range is whatever
# addr2line can name).
: >"$TMP/exe"
: >"$TMP/libc"
while read -r addr count; do
    a=$((16#$addr))
    if [ -n "${LIBC:-}" ] && ((a >= 16#$LIBC_LO && a < 16#$LIBC_HI)); then
        echo "$((a - 16#$LIBC_BASE)) $count" >>"$TMP/libc"
    else
        echo "$addr $count" >>"$TMP/exe"
    fi
done <"$TMP/counts"

# addr2line prints each address (-a), then one function and one
# location line per inlining level, innermost first.
cut -d' ' -f1 "$TMP/exe" | sed 's/^/0x/' |
    addr2line -a -f -i -C -e "$EXE" >"$TMP/lines"
awk -v counts="$TMP/exe" '
    BEGIN { while ((getline line < counts) > 0) { split(line, f, " "); n["0x" f[1]] = f[2] } }
    function kernel(f) { return f ~ /::Machine::(step_impl|step_and_jump)$/ }
    # The frame inlined directly into the innermost kernel frame.
    function phase(   i) {
        for (i = 0; i < frames; i++) {
            if (!kernel(chain[i])) continue
            # Standard-library frames (`?`, `mem::take`) count as the
            # kernel itself.
            if (i == 0 || chain[i - 1] ~ /^<?(core|alloc|std)::/) return "(kernel itself)"
            return chain[i - 1]
        }
        return outer " (out of line)"
    }
    function flush() {
        if (addr == "") return
        c = n[addr]
        if (inner == "??") { other += c }
        else {
            outer_n[outer] += c; inner_n[inner] += c; line_n[loc] += c; named += c
            phase_n[phase()] += c
        }
    }
    /^0x[0-9a-f]+$/ { flush(); addr = $0; sub(/^0x0*/, "0x", addr); depth = 0; frames = 0; next }
    {
        if (depth % 2 == 0) {
            fn = $0; chain[frames++] = fn
            if (depth == 0) inner = fn
            outer = fn
        }
        else if (depth == 1) { loc = $0; sub(/ \(discriminator [0-9]+\)$/, "", loc) }
        depth++
    }
    END {
        flush()
        for (k in phase_n) print "phase\t" phase_n[k] "\t" k
        for (k in outer_n) print "outer\t" outer_n[k] "\t" k
        for (k in inner_n) print "inner\t" inner_n[k] "\t" k
        for (k in line_n) print "line\t" line_n[k] "\t" k
        print "other\t" other + 0
        print "named\t" named + 0
    }' "$TMP/lines" >"$TMP/exe_tables"

# Nearest libc symbol at or below each libc offset.
if [ -s "$TMP/libc" ]; then
    nm -D --defined-only "$LIBC" | awk 'NF == 3 && $2 ~ /[TtWwi]/ { print $1, $3 }' |
        while read -r addr name; do echo "$((16#$addr)) $name"; done | sort -n -k1,1 >"$TMP/symbols"
    sort -n -k1,1 "$TMP/libc" | awk -v symbols="$TMP/symbols" '
        BEGIN { while ((getline line < symbols) > 0) { split(line, f, " "); at[++m] = f[1] + 0; name[m] = f[2] } }
        {
            while (j < m && at[j + 1] <= $1 + 0) j++
            n[j > 0 ? name[j] : "??"] += $2
        }
        END { for (k in n) print "libc\t" n[k] "\t" k }' >"$TMP/libc_tables"
else
    : >"$TMP/libc_tables"
fi

EXE_NAMED=$(awk -F'\t' '$1 == "named" { print $2 }' "$TMP/exe_tables")
EXE_OTHER=$(awk -F'\t' '$1 == "other" { print $2 }' "$TMP/exe_tables")
LIBC_SAMPLES=$(awk '{ n += $2 } END { print n + 0 }' "$TMP/libc")

share() { awk -v n="$1" -v t="$TOTAL" 'BEGIN { printf "%5.1f%%", 100 * n / t }'; }

head -n 1 "$PROFILE"
printf '%-28s %8d %s\n' "samples" "$TOTAL" "$(share "$TOTAL")"
printf '%-28s %8d %s\n' "executable" "$EXE_NAMED" "$(share "$EXE_NAMED")"
printf '%-28s %8d %s\n' "libc" "$LIBC_SAMPLES" "$(share "$LIBC_SAMPLES")"
printf '%-28s %8d %s\n' "other (loader, vDSO, ...)" "$EXE_OTHER" "$(share "$EXE_OTHER")"

table() {
    local kind="$1" title="$2"
    echo
    echo "$title"
    awk -F'\t' -v k="$kind" -v t="$TOTAL" '$1 == k { printf "%8d %5.1f%%  %s\n", $2, 100 * $2 / t, $3 }' \
        "$TMP/exe_tables" "$TMP/libc_tables" | sort -k1,1nr | awk -v top="$TOP" 'NR <= top'
}

table phase "by machine phase (executable)"
table outer "by outermost function (executable)"
table inner "by innermost function (executable)"
table line "by line (executable)"
table libc "by symbol (libc)"
