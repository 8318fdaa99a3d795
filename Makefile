GO ?= go

.PHONY: ci fmt vet build test race bench bench-smoke bench-module

# ci is the whole gate .github/workflows/ci.yml runs: gofmt, vet, build,
# the full test suite under the race detector (the harness worker pool
# is the main customer of -race), one pass of every microbenchmark, and
# the ntiperf module's own vet and tests. The suite includes every
# golden gate: cmd/nticampaign's TestCampaignGoldens byte-diffs each
# gated preset's artifacts at -shards 1 and 4 against testdata/
# (regenerate with `go test ./cmd/nticampaign -run CampaignGoldens -update`).
ci: fmt vet build race bench-smoke bench-module

# fmt fails when gofmt would change any tracked Go file; listing files
# through git skips build outputs such as .bench_build/.
fmt:
	@out="$$(git ls-files -z '*.go' | xargs -0 gofmt -l)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs every package microbenchmark exactly once
# (no timing loop): a cheap CI guard that benchmark code doesn't rot.
# Timings come from ntiperf (`bash bench/run.sh`, see bench/README.md).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-module vets and tests ntiperf, a module of its own that
# `./...` at the root skips (digest goldens, BENCHMARK.json vs tables).
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...
