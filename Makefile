GO ?= go

.PHONY: ci vet build test race bench bench-smoke campaign-check report-smoke report-golden discipline-smoke discipline-golden shard-smoke shard-golden serve-smoke serve-golden telemetry-smoke telemetry-golden byzantine-smoke byzantine-golden

# ci is the gate run by .github/workflows/ci.yml: vet, build, and the
# full test suite under the race detector (the harness worker pool is
# the main customer of -race).
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

# bench-smoke compiles and runs every benchmark exactly once (no timing
# loop): a cheap CI guard that benchmark code doesn't rot.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# campaign-check runs the smoke campaign and gates it against the
# committed golden file (regenerate with:
#   go run ./cmd/nticampaign -preset smoke -write-golden cmd/nticampaign/testdata/smoke.golden.json)
campaign-check:
	$(GO) run ./cmd/nticampaign -preset smoke -q -check cmd/nticampaign/testdata/smoke.golden.json

# report-smoke runs the smoke preset under 3 seeds, renders the
# Markdown+SVG report and byte-diffs it against the committed golden:
# the report pipeline (harness → stats → report) is deterministic end
# to end, so any diff is a real behavior change. Regenerate after an
# intentional change with `make report-golden`.
report-smoke:
	rm -rf build/report-smoke
	$(GO) run ./cmd/nticampaign -preset smoke -seeds 3 -q -out build/report-smoke >/dev/null
	$(GO) run ./cmd/ntireport -in build/report-smoke -out build/report-smoke/report.md
	diff -u cmd/ntireport/testdata/smoke.report.golden.md build/report-smoke/report.md

# discipline-smoke runs the clock-discipline shootout (every discipline
# × ensemble + GPS fault matrix) and byte-diffs its comparison report —
# including the head-to-head ranking table — against the committed
# golden. Any diff means a discipline's dynamics changed. Regenerate
# after an intentional change with `make discipline-golden`.
discipline-smoke:
	rm -rf build/discipline-smoke
	mkdir -p build/discipline-smoke
	$(GO) run ./cmd/nticampaign -preset disciplines -q -report build/discipline-smoke/report.md >/dev/null
	diff -u cmd/nticampaign/testdata/disciplines.report.golden.md build/discipline-smoke/report.md

# shard-smoke runs the sharded WANs-of-LANs campaign with 4 shard
# workers per multi-segment cell and byte-diffs its JSONL artifact
# against the committed golden, which was generated with -shards 1
# (sequential execution — the single-kernel baseline): the conservative
# parallel kernel must be bit-identical to it at any worker count.
# Regenerate after an intentional behavior change with `make
# shard-golden`.
shard-smoke:
	rm -rf build/shard-smoke
	$(GO) run ./cmd/nticampaign -preset sharded -shards 4 -q -out build/shard-smoke >/dev/null
	diff -u cmd/nticampaign/testdata/sharded.golden.jsonl build/shard-smoke/campaign-sharded.jsonl

# byzantine-smoke runs the Byzantine traitor-tolerance campaign with 4
# shard workers and byte-diffs its JSONL artifact against the committed
# golden, which was generated with -shards 1: traitor casts, per-pair
# lies and source-quarantine decisions are pure functions of the cell
# seed, so the adversarial grid must be bit-identical at any shard or
# campaign worker count. Regenerate after an intentional behavior
# change with `make byzantine-golden`.
byzantine-smoke:
	rm -rf build/byzantine-smoke
	$(GO) run ./cmd/nticampaign -preset byzantine -shards 4 -q -out build/byzantine-smoke >/dev/null
	diff -u cmd/nticampaign/testdata/byzantine.golden.jsonl build/byzantine-smoke/campaign-byzantine.jsonl

# serve-smoke runs the serving preset (clients × arrival grid, 3 seeds)
# with 4 shard workers and byte-diffs its JSONL artifact — including the
# served-accuracy percentiles — against the committed golden, which was
# generated with -shards 1: query arrival streams and quantile sketches
# must be bit-identical for any shard/worker count. Regenerate after an
# intentional behavior change with `make serve-golden`.
serve-smoke:
	rm -rf build/serve-smoke
	$(GO) run ./cmd/nticampaign -preset serving -seeds 3 -shards 4 -q -out build/serve-smoke >/dev/null
	diff -u cmd/nticampaign/testdata/serving.golden.jsonl build/serve-smoke/campaign-serving.jsonl

# telemetry-smoke runs the sharded campaign with runtime telemetry on
# (4 shard workers) and byte-diffs the combined per-tick snapshot
# artifact against the committed golden, which was generated with
# -shards 1: every counter, gauge high-water and histogram quantile in
# every snapshot must be bit-identical at any worker or shard-worker
# count. Regenerate after an intentional change with `make
# telemetry-golden`.
telemetry-smoke:
	rm -rf build/telemetry-smoke
	$(GO) run ./cmd/nticampaign -preset sharded -shards 4 -telemetry -q -out build/telemetry-smoke >/dev/null
	diff -u cmd/nticampaign/testdata/sharded.telemetry.golden.jsonl build/telemetry-smoke/campaign-sharded.telemetry.jsonl

# telemetry-golden refreshes the committed telemetry snapshot golden
# from a sequential (-shards 1) run.
telemetry-golden:
	rm -rf build/telemetry-golden
	$(GO) run ./cmd/nticampaign -preset sharded -shards 1 -telemetry -q -out build/telemetry-golden >/dev/null
	cp build/telemetry-golden/campaign-sharded.telemetry.jsonl cmd/nticampaign/testdata/sharded.telemetry.golden.jsonl

# serve-golden refreshes the committed serving campaign golden from a
# sequential (-shards 1) run.
serve-golden:
	rm -rf build/serve-golden
	$(GO) run ./cmd/nticampaign -preset serving -seeds 3 -shards 1 -q -out build/serve-golden >/dev/null
	cp build/serve-golden/campaign-serving.jsonl cmd/nticampaign/testdata/serving.golden.jsonl

# shard-golden refreshes the committed sharded campaign golden from a
# sequential (-shards 1) run.
shard-golden:
	rm -rf build/shard-golden
	$(GO) run ./cmd/nticampaign -preset sharded -shards 1 -q -out build/shard-golden >/dev/null
	cp build/shard-golden/campaign-sharded.jsonl cmd/nticampaign/testdata/sharded.golden.jsonl

# byzantine-golden refreshes the committed Byzantine campaign golden
# from a sequential (-shards 1) run.
byzantine-golden:
	rm -rf build/byzantine-golden
	$(GO) run ./cmd/nticampaign -preset byzantine -shards 1 -q -out build/byzantine-golden >/dev/null
	cp build/byzantine-golden/campaign-byzantine.jsonl cmd/nticampaign/testdata/byzantine.golden.jsonl

# discipline-golden refreshes the committed discipline shootout golden.
discipline-golden:
	$(GO) run ./cmd/nticampaign -preset disciplines -q -report cmd/nticampaign/testdata/disciplines.report.golden.md >/dev/null

# report-golden refreshes the committed smoke report golden.
report-golden:
	rm -rf build/report-smoke
	$(GO) run ./cmd/nticampaign -preset smoke -seeds 3 -q -out build/report-smoke >/dev/null
	$(GO) run ./cmd/ntireport -in build/report-smoke -out cmd/ntireport/testdata/smoke.report.golden.md
