#!/usr/bin/env sh
# bench_proto.sh — measure the binary protocol against HTTP on the same
# deterministic loadgen stream (cmd/rwpserve -proto-bench): throughput
# in ops/s plus p50/p99 latency for each leg. Both legs replay the
# identical op sequence against identically configured caches over real
# loopback sockets, so the delta is pure transport cost. Writes
# results/proto_bench.txt so regressions show up in review diffs.
#
# The timings are wall clock, so unlike the hit-rate numbers they vary
# by host — the gate below asserts only the ratio, which is stable.
#
# Usage: scripts/bench_proto.sh [ops]
set -eu

cd "$(dirname "$0")/.."

ops=${1:-20000}
out=results/proto_bench.txt
mkdir -p results

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/rwpserve" ./cmd/rwpserve

echo ">> rwpserve -proto-bench (binary protocol vs HTTP)"
{
    echo "# binary protocol vs HTTP transport bench (cmd/rwpserve -proto-bench)"
    echo "# wall-clock numbers vary by host; the gate asserts the ratio only"
    "$work/rwpserve" -proto-bench -proto-ops "$ops"
} | tee "$out"

# The tentpole's acceptance bar: the batched pipelined binary path must
# move the same op stream at >= 2x HTTP's throughput.
awk '/^binary\/http throughput ratio:/ { if ($4 + 0 < 2.0) bad = 1; seen = 1 }
     END { exit (bad || !seen) }' "$out" || {
    echo 'bench_proto.sh: FAIL: binary throughput below 2x HTTP (or no ratio line)' >&2
    exit 1
}

# Allocation gates for the zero-alloc read path. The direct get-hit and
# frame-read numbers are deterministic, so they are pinned exactly (they
# mirror the AllocsPerRun tests in internal/live and
# internal/live/proto). The end-to-end TCP number spans client, server
# goroutine and codecs; the server side is zero and the client's is the
# replies slice plus a share of a value chunk, so it is gated at
# ROADMAP 2b's bar of 2 (it was 11 before the wire path stopped
# allocating per request).
awk '/^allocs\/op live get-hit \(direct\):/  { direct = $5; seen_d = 1 }
     /^allocs\/op proto frame read:/         { fread = $5;  seen_f = 1 }
     /^allocs\/op tcp get-hit \(e2e\):/      { e2e = $5;    seen_e = 1 }
     END { exit !(seen_d && seen_f && seen_e && direct == "1.0" && fread == "0.0" && e2e + 0 <= 2.0) }' "$out" || {
    echo 'bench_proto.sh: FAIL: allocs/op lines missing or off baseline (want direct=1.0, frame read=0.0, tcp e2e<=2.0)' >&2
    exit 1
}
