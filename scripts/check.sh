#!/usr/bin/env sh
# check.sh — the pre-PR gate. Every change must pass this locally before
# review; CI needs nothing beyond it (the rwplint determinism suite runs
# inside `go test` via internal/analysis/selfcheck_test.go).
#
#   tier-1:  go build ./... && go test ./...
#   extras:  go vet, gofmt, rwplint (explicit, for readable output),
#            -race, the benchmark module's own vet + tests
#
# Usage: scripts/check.sh [-short]   (-short races only the concurrent packages)
set -eu

cd "$(dirname "$0")/.."

short=0
[ "${1:-}" = "-short" ] && short=1

echo '>> go build ./...'
go build ./...

echo '>> go vet ./...'
go vet ./...

echo '>> gofmt -l .'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo 'check.sh: FAIL: gofmt -l lists:' >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '>> go run ./cmd/rwplint ./...'
go run ./cmd/rwplint ./...

# Boundary: wall-clock network plumbing (HTTP) lives in cmd/, never
# under internal/ — the data wire is internal/live/proto alone.
echo '>> no net/http under ./internal/...'
if go list -deps ./internal/... | grep -qx net/http; then
    echo 'check.sh: FAIL: a package under internal/ depends on net/http' >&2
    exit 1
fi

echo '>> go test ./...'
go test ./...

# The benchmark is a module of its own (bench/go.mod), outside tier-1,
# and is built from this tree by the pipeline: a change under internal/
# that breaks its build or its self-tests must fail here, not there.
echo '>> go vet -C bench . && go test -C bench .'
go vet -C bench .
go test -C bench .

# Fuzz seed corpora: replay every checked-in seed (testdata/fuzz/ plus
# the F.Add seeds) through the wire-protocol fuzz targets — the RESTORE
# path into a live cache (FuzzRestoreWire) included — the
# snapshot-decoder target, the recency word kernel's differential
# target (FuzzTable) and the three journal readers (FuzzReadReqLog,
# FuzzReadJournal, FuzzReadShardWindows), so a corpus regression fails
# the gate without needing a fuzzing run.
echo '>> go test -run=Fuzz ./internal/live/proto ./internal/snap ./internal/recency ./internal/probe'
go test -run=Fuzz ./internal/live/proto ./internal/snap ./internal/recency ./internal/probe

if [ "$short" = 0 ]; then
    echo '>> go test -race ./...'
    go test -race ./...
    # Counted metrics (ROADMAP 16b): one benchmark run per workload at
    # seed 1 must reproduce the newest BENCH_<pr>.json's exact columns
    # bit for bit and its allocs_per_op within bound, so a counted metric
    # cannot move without a new record.
    echo '>> go run ./scripts/benchrec -head'
    go run ./scripts/benchrec -head
else
    # Even the short gate race-checks the packages built for
    # concurrency: the live cache's multi-goroutine stress test, the
    # binary-protocol server under concurrent pipelined clients, and
    # the server's listener limits (the connection cap and a refusal
    # past it that stalls outside the server's lock, the write deadline
    # that drops a peer that stops reading, the frame deadline that
    # drops a peer stalled inside a frame, one staged RESTORE), and
    # a coalesced leader's Get result, which its caller writes while a
    # waiter copies the shared fill.
    echo '>> go test -race -short -run Stress|ConnectionCap|WriteDeadline|FrameDeadline|StagedRestore|CoalescedLeaderResultIsPrivate ./internal/live/... ./cmd/rwpserve'
    go test -race -short -run 'Stress|ConnectionCap|WriteDeadline|FrameDeadline|StagedRestore|CoalescedLeaderResultIsPrivate' ./internal/live/... ./cmd/rwpserve
    # ... and the simulator, whose every run hands its access stream
    # between two goroutines (the read-ahead stage in internal/trace).
    echo '>> go test -race -short ./internal/sim/ ./internal/trace/'
    go test -race -short ./internal/sim/ ./internal/trace/
fi

# Engine smoke: run one experiment twice against the same cache dir.
# The second run must be a pure cache replay (executed=0) and its
# stdout must be byte-identical to the first — the parallel engine's
# user-facing contract, end to end through the real binary.
echo '>> engine smoke: warm-cache resume is a byte-identical replay'
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go run ./cmd/rwpexp -scale quick -exp E3 -j 4 -cache-dir "$smoke/cache" \
    >"$smoke/cold.out" 2>"$smoke/cold.err"
go run ./cmd/rwpexp -scale quick -exp E3 -j 4 -cache-dir "$smoke/cache" \
    >"$smoke/warm.out" 2>"$smoke/warm.err"
cmp "$smoke/cold.out" "$smoke/warm.out" || {
    echo 'check.sh: FAIL: warm-cache stdout differs from cold run' >&2
    exit 1
}
grep -q 'engine: .* executed=0 ' "$smoke/warm.err" || {
    echo 'check.sh: FAIL: warm-cache run re-executed jobs:' >&2
    grep 'engine:' "$smoke/warm.err" >&2 || true
    exit 1
}

# Paper smoke: the quick-scale E3 / E5 / E7 tables (single-core speedup,
# state overhead, 4-core throughput: the paper-facing numbers) must match
# results/quick/ byte for byte, so an unexplained move fails here and
# not under a reviewer's eye. E3 is the engine smoke's cold run. A
# deliberate change to the simulator's behaviour regenerates the three
# files with the commands below and says so in CHANGES.md.
echo '>> paper smoke: quick E3/E5/E7 tables match results/quick/'
cp "$smoke/cold.out" "$smoke/E3.out"
go run ./cmd/rwpexp -scale quick -exp E5 >"$smoke/E5.out" 2>"$smoke/E5.err"
go run ./cmd/rwpexp -scale quick -exp E7 >"$smoke/E7.out" 2>"$smoke/E7.err"
for e in E3 E5 E7; do
    cmp "$smoke/$e.out" "results/quick/$e.txt" || {
        echo "check.sh: FAIL: rwpexp -scale quick -exp $e moved against results/quick/$e.txt:" >&2
        diff "results/quick/$e.txt" "$smoke/$e.out" >&2 || true
        exit 1
    }
done

# Journal smoke: two cold runs with -metrics-dir must produce
# byte-identical run journals (the observability determinism contract:
# canonical JSONL, sorted keys, fixed record order). No shared cache
# dir — journals are only written when a job actually executes, so a
# warm-cache replay would legitimately write none.
echo '>> journal smoke: two cold runs write byte-identical journals'
go run ./cmd/rwpexp -scale quick -exp E3 -j 4 -metrics-dir "$smoke/m1" \
    >/dev/null 2>&1
go run ./cmd/rwpexp -scale quick -exp E3 -j 1 -metrics-dir "$smoke/m2" \
    >/dev/null 2>&1
[ -n "$(ls "$smoke/m1"/*.jsonl 2>/dev/null)" ] || {
    echo 'check.sh: FAIL: -metrics-dir produced no journals' >&2
    exit 1
}
for j in "$smoke/m1"/*.jsonl; do
    cmp "$j" "$smoke/m2/$(basename "$j")" || {
        echo "check.sh: FAIL: journal $(basename "$j") differs between runs" >&2
        exit 1
    }
done
# ... and read back: rwpstat renders both sets of journals, series
# included, and the two renderings are the same bytes.
echo '>> journal smoke: rwpstat -series reads both runs back identically'
for m in m1 m2; do
    go run ./cmd/rwpstat -dir "$smoke/$m" -series >"$smoke/$m.stat" || {
        echo "check.sh: FAIL: rwpstat could not read the journals in $smoke/$m" >&2
        exit 1
    }
done
cmp "$smoke/m1.stat" "$smoke/m2.stat" || {
    echo 'check.sh: FAIL: rwpstat renders the two runs differently' >&2
    exit 1
}

# The live smokes below run the two live binaries, built once: a
# `go run` per invocation would relink each time, and flatten exit codes.
echo '>> go build ./cmd/rwpserve ./cmd/rwpcluster'
bin=$smoke/bin
go build -o "$bin/" ./cmd/rwpserve ./cmd/rwpcluster

# Live-cache smoke: a seeded loadgen burst through the real rwpserve
# binary must print bit-identical /stats JSON on every run AND at every
# shard count — the live subsystem's determinism contract (sharding
# moves lock boundaries, not behavior).
echo '>> live smoke: rwpserve -selftest is shard-count invariant'
"$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile mcf >"$smoke/live1.json"
"$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile mcf >"$smoke/live2.json"
cmp "$smoke/live1.json" "$smoke/live2.json" || {
    echo 'check.sh: FAIL: rwpserve -selftest differs between identical runs' >&2
    exit 1
}
"$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards 32 \
    -profile mcf >"$smoke/live32.json"
cmp "$smoke/live1.json" "$smoke/live32.json" || {
    echo 'check.sh: FAIL: rwpserve -selftest differs between -shards 1 and 32' >&2
    exit 1
}

# Geometry smoke: RWP keeps one predictor per group of 8 consecutive
# sets, and a lock shard or a cluster ring range that would split a
# group is refused at start-up (exit 2, naming the group), never run
# with half a predictor.
echo '>> geometry smoke: a shard or ring range that splits a policy group exits 2'
for leg in 'rwpserve -shards 64' 'rwpcluster -ring-shards 64'; do
    rc=0
    # shellcheck disable=SC2086 # $leg is a command and its flag
    "$bin/"$leg -selftest 1 -sets 256 >/dev/null 2>"$smoke/geometry.err" || rc=$?
    if [ "$rc" != 2 ] || ! grep -q '8-set policy group' "$smoke/geometry.err"; then
        echo "check.sh: FAIL: $leg at -sets 256 exited $rc, want 2 with the group named:" >&2
        cat "$smoke/geometry.err" >&2
        exit 1
    fi
done

# Stampede smoke: the defenses must not perturb sequential runs —
# coalescing only collapses genuinely concurrent work, so a
# single-goroutine selftest with -coalesce (and a finite lease) prints
# the exact live-smoke bytes. Then the negative cache: an adversarial
# scan flood with -neg-ops is deterministic across runs AND shard
# counts, and actually records absence verdicts (nonzero NegInserts).
echo '>> stampede smoke: -coalesce is bit-identical; adv:scan -neg-ops is deterministic'
"$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile mcf -coalesce -lease-ops 64 >"$smoke/coalesce.json"
cmp "$smoke/live1.json" "$smoke/coalesce.json" || {
    echo 'check.sh: FAIL: -coalesce perturbed a single-goroutine selftest' >&2
    exit 1
}
"$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile adv:scan -coalesce -neg-ops 64 >"$smoke/neg1.json"
"$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards 32 \
    -profile adv:scan -coalesce -neg-ops 64 >"$smoke/neg32.json"
cmp "$smoke/neg1.json" "$smoke/neg32.json" || {
    echo 'check.sh: FAIL: adv:scan -neg-ops differs between -shards 1 and 32' >&2
    exit 1
}
if grep -q '"NegInserts": 0,' "$smoke/neg1.json"; then
    echo 'check.sh: FAIL: adv:scan -neg-ops recorded no absence verdicts' >&2
    exit 1
fi

# Transport smoke: the same burst through the binary protocol (batched
# MGET/MPUT frames, pipelined 8 deep) must print the same bytes — the
# transport-equivalence contract through the real binary.
echo '>> transport smoke: -selftest is transport invariant (tcp == direct)'
"$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile mcf -transport tcp -batch 64 -pipeline 8 >"$smoke/livetcp.json"
cmp "$smoke/live1.json" "$smoke/livetcp.json" || {
    echo 'check.sh: FAIL: rwpserve -selftest differs between tcp and direct transports' >&2
    exit 1
}

# Warm-restart smoke: snapshot a 12k-op selftest, resume it to 20k with
# -restore/-selftest-skip at different shard counts — the printed stats
# must be byte-identical to the uninterrupted 20k-op run
# ($smoke/live1.json from the live smoke). Then the fixed point:
# restoring and re-snapshotting with zero ops (skip == selftest) must
# reproduce the snapshot file byte-for-byte. Finally, a truncated
# snapshot must log 'starting cold' and produce the cold-run bytes with
# exit 0 — corruption never panics and never serves partial state.
echo '>> restart smoke: snapshot/restore equivalence across shard counts'
"$bin/rwpserve" -selftest 12000 -sets 256 -ways 8 -shards 4 \
    -profile mcf -snapshot "$smoke/warm.snap" >/dev/null
for sh in 1 32; do
    "$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards "$sh" \
        -profile mcf -restore "$smoke/warm.snap" -selftest-skip 12000 \
        >"$smoke/resumed$sh.json" 2>"$smoke/resumed$sh.err"
    cmp "$smoke/live1.json" "$smoke/resumed$sh.json" || {
        echo "check.sh: FAIL: restored run (-shards $sh) differs from uninterrupted run" >&2
        exit 1
    }
    if grep -q 'starting cold' "$smoke/resumed$sh.err"; then
        echo "check.sh: FAIL: restore (-shards $sh) fell back to a cold start:" >&2
        cat "$smoke/resumed$sh.err" >&2
        exit 1
    fi
done
"$bin/rwpserve" -selftest 12000 -sets 256 -ways 8 -shards 32 \
    -profile mcf -restore "$smoke/warm.snap" -selftest-skip 12000 \
    -snapshot "$smoke/warm2.snap" >/dev/null
cmp "$smoke/warm.snap" "$smoke/warm2.snap" || {
    echo 'check.sh: FAIL: restore + re-snapshot is not a fixed point' >&2
    exit 1
}
head -c 256 "$smoke/warm.snap" >"$smoke/trunc.snap"
"$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile mcf -restore "$smoke/trunc.snap" \
    >"$smoke/coldstart.json" 2>"$smoke/coldstart.err"
cmp "$smoke/live1.json" "$smoke/coldstart.json" || {
    echo 'check.sh: FAIL: corrupt-snapshot run differs from the cold run' >&2
    exit 1
}
grep -q 'starting cold' "$smoke/coldstart.err" || {
    echo 'check.sh: FAIL: corrupt snapshot did not log the cold-start fallback' >&2
    exit 1
}

# Retarget smoke: the live smoke again with a short RWP interval, so
# sets retarget (the default interval never fires in 20k ops over 256
# sets) and the partition hit splits (GetHitsClean ... PutHitsDirty)
# move. The document must be byte-identical across shard counts, over
# tcp, merged across a 3-node cluster, and through a snapshot at op
# 12000 resumed at another shard count.
echo '>> retarget smoke: the stats document with retargets is shard, transport, cluster and restart invariant'
probe_run() {
    cmd=$1; shift
    "$bin/$cmd" -selftest 20000 -sets 256 -ways 8 -profile mcf \
        -interval 32 "$@"
}
probe_run rwpserve -shards 1 >"$smoke/probe1.json"
grep -q '"GetHitsClean":' "$smoke/probe1.json" || {
    echo 'check.sh: FAIL: the stats document has no partition hit splits' >&2
    exit 1
}
if grep -q '"Retargets": 0,' "$smoke/probe1.json"; then
    echo 'check.sh: FAIL: retarget smoke never retargeted' >&2
    exit 1
fi
probe_run rwpserve -shards 32 >"$smoke/probe32.json"
probe_run rwpserve -shards 1 -transport tcp -batch 64 -pipeline 8 >"$smoke/probetcp.json"
probe_run rwpcluster -shards 1 -ring-shards 16 >"$smoke/probecluster.json"
"$bin/rwpserve" -selftest 12000 -sets 256 -ways 8 -shards 4 -profile mcf \
    -interval 32 -snapshot "$smoke/probe.snap" >/dev/null
probe_run rwpserve -shards 32 -restore "$smoke/probe.snap" -selftest-skip 12000 \
    >"$smoke/proberesumed.json" 2>"$smoke/proberesumed.err"
if grep -q 'starting cold' "$smoke/proberesumed.err"; then
    echo 'check.sh: FAIL: retarget smoke restore fell back to a cold start:' >&2
    cat "$smoke/proberesumed.err" >&2
    exit 1
fi
for leg in probe32 probetcp probecluster proberesumed; do
    cmp "$smoke/probe1.json" "$smoke/$leg.json" || {
        echo "check.sh: FAIL: retarget smoke leg $leg differs from -shards 1" >&2
        exit 1
    }
done

# Cluster smoke: the 3-node merged stats document must be bit-identical
# across runs, across ring-shard counts (the ring only moves whole set
# ranges between nodes), AND to the single-node rwpserve run above at
# the same geometry/profile/seed — the cluster is a partitioning of the
# single-node run, not an approximation. $smoke/live1.json is the
# rwpserve baseline produced by the live smoke.
echo '>> cluster smoke: rwpcluster -selftest merges to the single-node bytes'
"$bin/rwpcluster" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile mcf -ring-shards 16 >"$smoke/cluster1.json"
"$bin/rwpcluster" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile mcf -ring-shards 16 >"$smoke/cluster2.json"
cmp "$smoke/cluster1.json" "$smoke/cluster2.json" || {
    echo 'check.sh: FAIL: rwpcluster -selftest differs between identical runs' >&2
    exit 1
}
"$bin/rwpcluster" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile mcf -ring-shards 32 >"$smoke/cluster32.json"
cmp "$smoke/cluster1.json" "$smoke/cluster32.json" || {
    echo 'check.sh: FAIL: rwpcluster -selftest differs across -ring-shards' >&2
    exit 1
}
cmp "$smoke/live1.json" "$smoke/cluster1.json" || {
    echo 'check.sh: FAIL: cluster merged stats differ from single-node rwpserve' >&2
    exit 1
}
# ... and on a profile whose keys the backing store does not have: both
# binaries build the stream and the Loader the same way.
"$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile adv:scan >"$smoke/scan1.json"
"$bin/rwpcluster" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile adv:scan -ring-shards 16 >"$smoke/clusterscan.json"
cmp "$smoke/scan1.json" "$smoke/clusterscan.json" || {
    echo 'check.sh: FAIL: cluster adv:scan stats differ from single-node rwpserve' >&2
    exit 1
}

# Record/replay smoke: re-run the live burst with -record; capture must
# not perturb the run (stats == the unrecorded live smoke), replaying
# the journal with -in — rwpserve direct and over tcp, a 3-node
# rwpcluster — must reproduce those bytes, and re-recording at a
# different shard count must reproduce the journal itself — the replay
# equivalence contract (DESIGN.md §14) through the real binaries.
# $smoke/live1.json is the rwpserve baseline from the live smoke above.
echo '>> replay smoke: record -> replay (-in) reproduces the stats bytes'
"$bin/rwpserve" -selftest 20000 -sets 256 -ways 8 -shards 4 \
    -profile mcf -record "$smoke/reqs.jsonl" >"$smoke/recorded.json"
cmp "$smoke/live1.json" "$smoke/recorded.json" || {
    echo 'check.sh: FAIL: -record perturbed the selftest stats' >&2
    exit 1
}
"$bin/rwpserve" -in "$smoke/reqs.jsonl" -sets 256 -ways 8 \
    -shards 8 >"$smoke/replay-direct.json"
cmp "$smoke/live1.json" "$smoke/replay-direct.json" || {
    echo 'check.sh: FAIL: direct replay differs from the recorded run' >&2
    exit 1
}
"$bin/rwpserve" -in "$smoke/reqs.jsonl" -sets 256 -ways 8 \
    -shards 2 -transport tcp -batch 64 -pipeline 8 >"$smoke/replay-tcp.json"
cmp "$smoke/live1.json" "$smoke/replay-tcp.json" || {
    echo 'check.sh: FAIL: tcp replay differs from the recorded run' >&2
    exit 1
}
"$bin/rwpcluster" -in "$smoke/reqs.jsonl" -sets 256 -ways 8 \
    -shards 1 -nodes 3 -ring-shards 16 >"$smoke/replay-cluster.json"
cmp "$smoke/live1.json" "$smoke/replay-cluster.json" || {
    echo 'check.sh: FAIL: 3-node cluster replay differs from the recorded run' >&2
    exit 1
}
"$bin/rwpserve" -in "$smoke/reqs.jsonl" -sets 256 -ways 8 \
    -shards 16 -record "$smoke/rerec.jsonl" >/dev/null
cmp "$smoke/reqs.jsonl" "$smoke/rerec.jsonl" || {
    echo 'check.sh: FAIL: re-recorded journal differs from the input journal' >&2
    exit 1
}

# Managed cluster smoke: with the replication control loop on, the run
# (merged stats + shard-window journal) must still be bit-identical
# across reruns — the manager is op-count clocked, not wall clocked.
# And the journal is a stream, written as windows close: a ten times
# longer run of the same stream opens with the same bytes, through the
# shorter run's last whole window (20000 ops = 19 windows of 1024 and a
# tail; one header line, 16 shard records a window).
echo '>> cluster smoke: managed run is deterministic'
"$bin/rwpcluster" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile mcf -ring-shards 16 -manager -window 1024 -hot 128 -cold 16 \
    -windows-out "$smoke/win1.jsonl" >"$smoke/managed1.json"
"$bin/rwpcluster" -selftest 20000 -sets 256 -ways 8 -shards 1 \
    -profile mcf -ring-shards 16 -manager -window 1024 -hot 128 -cold 16 \
    -windows-out "$smoke/win2.jsonl" >"$smoke/managed2.json"
cmp "$smoke/managed1.json" "$smoke/managed2.json" || {
    echo 'check.sh: FAIL: managed rwpcluster stats differ between identical runs' >&2
    exit 1
}
cmp "$smoke/win1.jsonl" "$smoke/win2.jsonl" || {
    echo 'check.sh: FAIL: managed shard-window journals differ between identical runs' >&2
    exit 1
}
"$bin/rwpcluster" -selftest 200000 -sets 256 -ways 8 -shards 1 \
    -profile mcf -ring-shards 16 -manager -window 1024 -hot 128 -cold 16 \
    -windows-out "$smoke/win10x.jsonl" >/dev/null
head -n $((1 + 19*16)) "$smoke/win1.jsonl" >"$smoke/win1.head"
head -n $((1 + 19*16)) "$smoke/win10x.jsonl" >"$smoke/win10x.head"
cmp "$smoke/win1.head" "$smoke/win10x.head" || {
    echo 'check.sh: FAIL: the 20000-op journal is not a prefix of the 200000-op journal' >&2
    exit 1
}

echo 'check.sh: all gates passed'
