#!/usr/bin/env sh
# check.sh — the pre-PR gate: a list of commands. Every change must pass
# it locally before review; CI needs nothing beyond it.
#
#   tier-1:  go build ./... && go test ./...
#   extras:  go vet, gofmt, the net/http boundary, the benchmark
#            module's own vet + tests, -race, the counted-metrics record
#
# Each end-to-end contract (transport, cluster and restart invariance,
# the snapshot fixed point, byte-identical replay, every
# paper table's CSV at tiny scale) is a Go test, and so is the rwplint
# suite (internal/analysis/selfcheck_test.go): `go test ./...` runs them
# all, fuzz seed corpora included, and caches what did not change.
# DESIGN.md §7 "Audit: the check.sh smokes" maps each contract to its
# test, and "Audit: the paper gate" each table to its pin.
#
# Usage: scripts/check.sh [-short]   (-short races only the concurrent packages)
set -eu

cd "$(dirname "$0")/.."

short=0
[ "${1:-}" = "-short" ] && short=1

# -buildvcs=false: VCS stamping runs git, which touches .git and so
# changes the repo root's listing, an input of the rwplint selfcheck's
# module walk; with stamping, internal/analysis never hits the test cache.
echo '>> go build -buildvcs=false ./...'
go build -buildvcs=false ./...

echo '>> go vet ./...'
go vet ./...

echo '>> gofmt -l .'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo 'check.sh: FAIL: gofmt -l lists:' >&2
    echo "$unformatted" >&2
    exit 1
fi

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

echo 'check.sh: all gates passed'
