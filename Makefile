GO ?= go

.PHONY: ci fmt vet build deadcode golden-flag test race fuzz-smoke bench bench-smoke bench-module lines

# ci is the whole gate .github/workflows/ci.yml runs: gofmt, vet, build,
# the full test suite under the race detector (the harness worker pool
# is the main customer of -race), the six fuzz-smoke targets, one pass
# of every microbenchmark, and the ntiperf module's own vet and tests.
# The suite includes every golden gate; all six golden tests go through
# internal/golden.Check, which byte-diffs each artifact against its
# testdata/ file. Regenerate them all with
#   go test -v ./cmd/nticampaign ./cmd/ntibench ./cmd/ntireport ./cmd/ntitrace ./internal/cluster ./internal/report -update
# and read the log: each rewritten golden names its changed fields, each
# marked engine (events, seq, sim.*, group.*) or model, and says
# "engine-only" when no model field changed; an unchanged one logs
# "unchanged" and is not rewritten.
ci: fmt vet build deadcode golden-flag race fuzz-smoke bench-smoke bench-module

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

# golden-flag fails when a Go file outside internal/golden declares its
# own -update flag, so the golden mechanism stays one (git grep exits 1
# only when nothing matches; a match is 0, an error 128).
golden-flag:
	@git grep -n 'flag.Bool("update"' -- '*.go' ':!internal/golden'; test $$? -eq 1

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke runs six fuzz targets past their committed corpora: the
# UTCSU clock for 15 s (in reference mode it checks the register
# timeline tick by tick against a plain adder model), the event queue
# for 10 s (At, Chain, Cancel and tickers against a stable sort), frame
# ownership for 5 s (senders poison a payload when its done hook fires;
# every station checks the bytes it is handed), the COMCO's DMA bursts
# for 5 s (one burst per frame against the per-word reference
# controller, word times and triggers included), the convergence
# functions for 5 s (the Fuser against a brute-force depth oracle) and
# the synchronizer's round table for 5 s (peer slots against the
# per-round maps they replaced).
# Go minimizes each new interesting input for up to 60 s by default,
# which would spend the budget shrinking instead of fuzzing; 2 s caps it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzClockOps$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/utcsu
	$(GO) test -run '^$$' -fuzz '^FuzzEventQueue$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzFrameOwnership$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/network
	$(GO) test -run '^$$' -fuzz '^FuzzDMABurst$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/comco
	$(GO) test -run '^$$' -fuzz '^FuzzFuser$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/interval
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTable$$' -fuzztime 5s -fuzzminimizetime 2s ./internal/clocksync

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

# lines prints the tracked Go line counts outside bench/, non-test and
# test, the figures a simplicity change reports before and after.
lines:
	@printf 'non-test %s\ntest     %s\n' \
		"$$(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l)" \
		"$$(git ls-files '*.go' | grep -v '^bench/' | grep '_test\.go$$' | xargs cat | wc -l)"
