# Convenience targets; scripts/check.sh is the source of truth for the
# pre-PR gate.

.PHONY: build test lint lint-report check check-short cover exps bench

build:
	go build ./...

test:
	go test ./...

# rwplint: the repo's determinism/correctness static analysis. Also
# enforced inside `make test` by internal/analysis/selfcheck_test.go;
# run it directly for per-finding output.
lint:
	go run ./cmd/rwplint ./...

# Per-rule finding/suppression counts, recorded in
# results/lint_report.txt so suppression drift shows up in review
# diffs. Fails like `make lint` if any finding is unsuppressed.
lint-report:
	mkdir -p results
	go run ./cmd/rwplint -report ./... | tee results/lint_report.txt

# The pre-PR gate: build, vet, rwplint, tests, race tests.
check:
	scripts/check.sh

# Same gate without the -race pass (for quick iteration).
check-short:
	scripts/check.sh -short

# Per-package statement coverage, recorded in results/coverage.txt so
# coverage drift shows up in review diffs.
cover:
	mkdir -p results
	go test -cover ./... | tee results/coverage.txt

# Regenerate the paper's tables at CI scale.
exps:
	go run ./cmd/rwpexp -scale quick

# The repo's one measuring instrument (BENCHMARK.json): builds bench/
# from this checkout and runs every workload; the last stdout line is
# the result JSON. For options (-workload, -seconds, ...) call
# bench/run.sh directly; see bench/README.md.
bench:
	bash bench/run.sh
