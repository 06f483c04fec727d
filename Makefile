# Convenience targets; scripts/check.sh is the source of truth for the
# pre-PR gate.

.PHONY: build test check check-short exps paper bench

build:
	go build ./...

# Tier-1: every unit, property and end-to-end test, the paper-table
# pins and the lock rules' tests included.
test:
	go test ./...

# The pre-PR gate: build, vet, gofmt, tests (every end-to-end contract
# included), the bench module, -race, benchrec -head.
check:
	scripts/check.sh

# Same gate for quick iteration: -race over the concurrent packages
# only, and no benchrec -head.
check-short:
	scripts/check.sh -short

# Regenerate the paper's tables at CI scale.
exps:
	go run ./cmd/rwpexp -scale quick

# The paper gate: rerun every experiment at full scale and cmp each of
# the 15 CSVs against results/, naming every one that differs. Run it at
# each re-anchor; a deliberate move regenerates results/ with -csv
# results. Per change, go test holds every table: internal/exps pins each
# CSV at tiny scale (DESIGN.md §7, "Audit: the paper gate").
paper:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/rwpexp -scale full -j 2 -csv "$$tmp" -cache-dir "$$tmp/cache" >/dev/null && \
	n=0 && bad=0 && for f in results/*.csv; do \
		cmp "$$tmp/$${f#results/}" "$$f" || bad=$$((bad+1)); n=$$((n+1)); \
	done && \
	if [ "$$bad" -ne 0 ]; then echo "paper: $$bad of $$n CSVs differ from results/"; exit 1; fi && \
	test "$$n" -eq 15 && echo "paper: all $$n CSVs match results/"

# The repo's one measuring instrument (BENCHMARK.json): builds bench/
# from this checkout and runs every workload; the last stdout line is
# the result JSON. For options (-workload, -seconds, ...) call
# bench/run.sh directly; see bench/README.md.
bench:
	bash bench/run.sh
