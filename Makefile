GO ?= go

.PHONY: ci fmt vet build deadcode test race bench bench-smoke bench-module

# ci is the whole gate .github/workflows/ci.yml runs: gofmt, vet, build,
# the full test suite under the race detector (the harness worker pool
# is the main customer of -race), one pass of every microbenchmark, and
# the ntiperf module's own vet and tests. The suite includes every
# golden gate: cmd/nticampaign's TestCampaignGoldens byte-diffs each
# gated preset's artifacts at -shards 1 and 4 against testdata/
# (regenerate with `go test ./cmd/nticampaign -run CampaignGoldens -update`),
# and cmd/ntibench's TestSuiteClaimsAtSeed1998 byte-diffs the seed-1998
# experiment tables against testdata/seed1998.golden.txt (regenerate with
# `go test ./cmd/ntibench -run SuiteClaimsAtSeed1998 -update`).
ci: fmt vet build deadcode race bench-smoke bench-module

# fmt fails when gofmt would change any tracked Go file; listing files
# through git skips build outputs such as .bench_build/.
fmt:
	@out="$$(git ls-files -z '*.go' | xargs -0 gofmt -l)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# deadcode fails on an exported function or method under internal/ that
# no command, example or ntiperf links and that deadcode.allow does not
# list with a reason; it also fails on an allow entry that is linked or
# gone. The binaries are built without inlining so every call links a
# symbol, and type parameters are stripped from the symbol names.
deadcode:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -gcflags=all=-l -o "$$d/" ./cmd/... ./examples/... && \
	(cd bench && $(GO) build -gcflags=all=-l -o "$$d/" ./ntiperf) && \
	for b in "$$d"/*; do $(GO) tool nm "$$b"; done | awk '{print $$NF}' | \
		sed -E ':a; s/\[[^][]*\]//g; ta' | grep '^ntisim/internal/' | sort -u > "$$d/linked" && \
	for p in $$($(GO) list ./internal/...); do $(GO) doc -all "$$p" | grep '^func ' | \
		sed -E ':a; s/\[[^][]*\]//g; ta; s/^func \(([A-Za-z0-9_]+ )?(\*?)([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+)\(.*/\2\3.\4/; s/^func ([A-Za-z0-9_]+)\(.*/\1/; s/^\*([^.]+)/(*\1)/; s|^|'"$$p."'|'; \
	done | sort -u | comm -23 - "$$d/linked" > "$$d/unlinked" && \
	grep -v '^#' deadcode.allow | awk 'NF {print $$1}' | sort > "$$d/allowed" && \
	new=$$(comm -23 "$$d/unlinked" "$$d/allowed") && stale=$$(comm -13 "$$d/unlinked" "$$d/allowed") && \
	if [ -n "$$new$$stale" ]; then \
		[ -z "$$new" ] || printf 'linked by no binary and not in deadcode.allow:\n%s\n' "$$new"; \
		[ -z "$$stale" ] || printf 'deadcode.allow entries that are linked or gone:\n%s\n' "$$stale"; \
		exit 1; fi

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
