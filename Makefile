# Convenience targets; scripts/check.sh is the source of truth for the
# pre-PR gate.

.PHONY: build test lint check check-short exps paper bench

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

# The paper gate: rerun every experiment at full scale and cmp each of
# the 15 CSVs against results/. Run it on any change to the simulator
# or a policy; a deliberate move regenerates results/ with -csv results.
paper:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/rwpexp -scale full -j 2 -csv "$$tmp" -cache-dir "$$tmp/cache" >/dev/null && \
	n=0 && for f in results/*.csv; do \
		cmp "$$tmp/$${f#results/}" "$$f" || exit 1; n=$$((n+1)); \
	done && \
	test "$$n" -eq 15 && echo "paper: all $$n CSVs match results/"

# The repo's one measuring instrument (BENCHMARK.json): builds bench/
# from this checkout and runs every workload; the last stdout line is
# the result JSON. For options (-workload, -seconds, ...) call
# bench/run.sh directly; see bench/README.md.
bench:
	bash bench/run.sh
