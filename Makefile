GO ?= go

.PHONY: ci vet build test race bench bench-smoke

# ci is the gate run by .github/workflows/ci.yml: vet, build, and the
# full test suite under the race detector (the harness worker pool is
# the main customer of -race). The suite includes every golden gate:
# cmd/nticampaign's TestCampaignGoldens byte-diffs each gated preset's
# artifacts at -shards 1 and 4 against testdata/ (regenerate with
# `go test ./cmd/nticampaign -run CampaignGoldens -update`).
ci: vet build race

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
# Timings come from ntiperf (`bash bench/run.sh`, see bench/README.md),
# whose module has its own tests: `cd bench && go test ./...`.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
