#!/usr/bin/env bash
# benchguard.sh — fail when the hot query path regresses.
#
# Three checks over BenchmarkParallelAnswer, each on the best of a few
# runs to squeeze out scheduler noise:
#
#   1. Absolute: /snapshot (the warm-snapshot answer path, the number
#      this repo's observability work promised not to tax) against the
#      committed baseline in BENCH_trace.json
#      (parallel_answer_instrumented_ns_per_op). More than 15% over
#      fails.
#   2. Differential: /recorder (the same path with every answer offered
#      to a full flight-recorder reservoir — the served steady state)
#      against /snapshot from the SAME run. More than 5% over fails;
#      this is the recorder-enabled budget and is machine-independent.
#   3. Differential: /cancelcheck (the same path answered through
#      AnswerCtxTraced(ctx, q, nil) under a cancellable context — the
#      server's actual steady state, with the cooperative-cancellation
#      polling compiled in) against /snapshot (Answer, the same call
#      under context.Background) from the SAME run. More than 5% over
#      fails; this is the resource-governance budget. Both take the
#      warm-exact fast path, so the difference is the up-front context
#      poll.
#
# The absolute baseline is machine-specific; CI runner classes close to
# the recorded CPU make that comparison meaningful, and the 15% slack
# absorbs the rest. Re-record BENCH_trace.json when the runner class or
# the intended performance changes.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=$(grep -o '"parallel_answer_instrumented_ns_per_op": *[0-9]*' BENCH_trace.json | grep -o '[0-9]*$')
if [ -z "$BASE" ]; then
    echo "benchguard: no baseline in BENCH_trace.json" >&2
    exit 1
fi

OUT=${1:-bench-parallel.txt}
go test -bench='ParallelAnswer/(snapshot|recorder|cancelcheck)' -benchtime=500ms -count=4 -run='^$' . | tee "$OUT"

SNAP=$(awk '$1 ~ /^BenchmarkParallelAnswer\/snapshot/ {print $(NF-1)}' "$OUT" | sort -n | head -1)
REC=$(awk '$1 ~ /^BenchmarkParallelAnswer\/recorder/ {print $(NF-1)}' "$OUT" | sort -n | head -1)
CANCEL=$(awk '$1 ~ /^BenchmarkParallelAnswer\/cancelcheck/ {print $(NF-1)}' "$OUT" | sort -n | head -1)
if [ -z "$SNAP" ] || [ -z "$REC" ] || [ -z "$CANCEL" ]; then
    echo "benchguard: benchmark output missing from $OUT (snapshot=$SNAP recorder=$REC cancelcheck=$CANCEL)" >&2
    exit 1
fi

awk -v snap="$SNAP" -v base="$BASE" 'BEGIN {
    limit = base * 1.15
    printf "benchguard: snapshot %.1f ns/op, baseline %d ns/op, limit %.1f ns/op (+15%%)\n", snap, base, limit
    if (snap > limit) {
        printf "benchguard: FAIL — hot query path regressed %.1f%%\n", (snap / base - 1) * 100
        exit 1
    }
    printf "benchguard: ok (%.1f%% vs baseline)\n", (snap / base - 1) * 100
}'

awk -v snap="$SNAP" -v rec="$REC" 'BEGIN {
    limit = snap * 1.05
    printf "benchguard: recorder %.1f ns/op vs snapshot %.1f ns/op, limit %.1f ns/op (+5%%)\n", rec, snap, limit
    if (rec > limit) {
        printf "benchguard: FAIL — flight-recorder tax %.1f%% over the same-run snapshot\n", (rec / snap - 1) * 100
        exit 1
    }
    printf "benchguard: ok (recorder tax %.1f%%)\n", (rec / snap - 1) * 100
}'

awk -v snap="$SNAP" -v cancel="$CANCEL" 'BEGIN {
    limit = snap * 1.05
    printf "benchguard: cancelcheck %.1f ns/op vs snapshot %.1f ns/op, limit %.1f ns/op (+5%%)\n", cancel, snap, limit
    if (cancel > limit) {
        printf "benchguard: FAIL — cancellation-check tax %.1f%% over the same-run snapshot\n", (cancel / snap - 1) * 100
        exit 1
    }
    printf "benchguard: ok (cancellation-check tax %.1f%%)\n", (cancel / snap - 1) * 100
}'
