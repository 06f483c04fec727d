# Convenience targets; scripts/check.sh is the source of truth for the
# pre-PR gate.

.PHONY: build test lint check check-short exps bench

build:
	go build ./...

test:
	go test ./...

# rwplint: the repo's determinism/correctness static analysis. Also
# enforced inside `make test` by internal/analysis/selfcheck_test.go;
# run it directly for per-finding output.
lint:
	go run ./cmd/rwplint ./...

# The pre-PR gate: build, vet, rwplint, tests, race tests.
check:
	scripts/check.sh

# Same gate without the -race pass (for quick iteration).
check-short:
	scripts/check.sh -short

# Regenerate the paper's tables at CI scale.
exps:
	go run ./cmd/rwpexp -scale quick

# The repo's one measuring instrument (BENCHMARK.json): builds bench/
# from this checkout and runs every workload; the last stdout line is
# the result JSON. For options (-workload, -seconds, ...) call
# bench/run.sh directly; see bench/README.md.
bench:
	bash bench/run.sh
