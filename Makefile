# Total-statement coverage floor for `make cover-check` (CI blocking step).
# Measured with -short; re-record by running `make cover` and reading the
# final `total:` line of `go tool cover -func`.
COVER_BASELINE ?= 80.8

.PHONY: build test race race-tiny cover cover-check bench-smoke fuzz-smoke bench-host bench-recover trace-smoke top-smoke lint census mutants

build:
	go build ./...

test:
	go test ./...

# The race detector runs the full data plane with bufpool's per-segment
# acquire/release site tracking enabled (debug_race.go), so the heaviest
# experiment packages need more than go test's default 10m per-package
# timeout. Under -race the crashmc and exp test binaries each peak near
# 5 GiB, so they run one at a time after the rest: side by side they
# overrun an 8 GiB host.
race:
	go test -race -timeout 30m $$(go list ./... | grep -v -e '/internal/crashmc$$' -e '/internal/exp$$')
	go test -race -timeout 30m ./internal/crashmc
	go test -race -timeout 30m ./internal/exp

# Tiny-scale race pass: -short trims the experiment grids and seed corpora
# (including the multi-tenant isolation suite) so the race detector covers
# every package quickly. CI runs this as its own job; `make race` remains
# the full-scale local run.
race-tiny:
	go test -race -short -timeout 20m ./...

# Coverage snapshot at tiny scale: writes coverage.out (uploaded by CI as
# an artifact) and prints the per-function rollup.
cover:
	go test -short -coverprofile=coverage.out ./...
	go tool cover -func=coverage.out | tail -1

# Blocking coverage gate: fail if total statement coverage drops below
# COVER_BASELINE (recorded above when the baseline was last measured).
cover-check: cover
	@total=$$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit !(t+0 >= b+0) }' || \
		{ echo "coverage $$total% fell below baseline $(COVER_BASELINE)%"; exit 1; }

# Single local lint entry point, mirrored by the CI lint job: formatting,
# the stock vet suite (also for arm64, so the non-amd64 fallbacks of
# assembly kernels keep compiling), and — when the tool and network are available —
# govulncheck (advisory, never blocking). The repo's determinism contract
# (DESIGN.md "Determinism contract") is a test:
# internal/analysis.TestDeterminismContract runs under `make test`.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	go vet ./...
	GOARCH=arm64 go vet ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "govulncheck reported findings (non-blocking)"; \
	else \
		echo "govulncheck not installed; skipping (non-blocking)"; \
	fi

# Compile and single-shot every benchmark without running tests: catches
# benchmark-only regressions cheaply (used by CI).
bench-smoke:
	go test -short -run XXX -bench . -benchtime=1x ./...

# Ten seconds of each native fuzz target, corpus seeds first. Local only: go
# test already runs every seed corpus, and no mutant under mutants/ is caught
# by these ten seconds and missed by go test. -fuzz accepts one target per
# invocation.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/snapshot
	go test -run '^$$' -fuzz '^FuzzDecodeRuns$$' -fuzztime 10s ./internal/snapshot
	go test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime 10s ./internal/snapshot
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/wal
	go test -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime 10s ./internal/wal
	go test -run '^$$' -fuzz '^FuzzStore$$' -fuzztime 10s ./internal/imdb

# Host-clock benchmark of the simulator itself — the repo's one performance
# ledger (BENCHMARK.json is its contract, bench/README.md its manual): five
# workloads in child processes, reports under bench/out/.
bench-host:
	go run ./bench

# The snapshot and recovery paths' micro-benchmarks with allocation counts:
# the chunk codec and the snapshot writer and reader, WAL decode,
# engine-level recovery on both backends, and the keyspace's Set and Get.
bench-recover:
	go test -run '^$$' -bench 'Recover|Reader|Decode|Codec|Writer|Store' -benchmem ./internal/snapshot ./internal/wal ./internal/imdb

# Mutation matrix (manual; a few minutes per mutant on 2 vCPUs): apply each
# mutants/*.patch to a scratch copy of the tree, run go test, go test -race
# -short and each determinism-contract pass against it, and rewrite
# mutants/TABLE.md with what caught what.
# Fails if the unmodified tree fails a net or a mutant survives them all.
mutants:
	./mutants/run.sh

# Run a tiny traced cell end to end and export the Chrome trace-event JSON;
# slimio-bench validates the export against the trace-event schema before
# writing it and exits 1 if it fails (used by CI, which also uploads the
# trace as an artifact). Generated artifacts live in the gitignored out/
# directory.
trace-smoke:
	mkdir -p out
	go run ./cmd/slimio-bench -exp table3 -scale tiny -vtrace out/trace-smoke.json

# Run a tiny traced + telemetered table3 end to end, export the telemetry
# dump (schema-validated by the exporter), and render it with slimio-top
# (deterministic plain text; ParseDump re-validates on load). An empty render
# fails the target. Used by CI as a blocking step; the telemetry directory
# is uploaded as an artifact.
top-smoke:
	mkdir -p out
	go run ./cmd/slimio-bench -exp table3 -scale tiny -vtrace out/top-smoke-trace.json -telemetry out/telemetry
	go run ./cmd/slimio-top -dump out/telemetry/telemetry.json > out/top-smoke.txt
	@test -s out/top-smoke.txt || { echo "top-smoke: empty slimio-top render"; exit 1; }
	@grep -q "^cell " out/top-smoke.txt || { echo "top-smoke: no cell tables in render"; exit 1; }

# Size census: the numbers the simplicity PRs (15, 17, 21, 22) quote before ->
# after, computed with find, grep and go list alone so any checkout can
# reproduce them. Informational (CI prints it, nothing gates on it). bench/
# is the frozen benchmark and testdata/ holds analyser fixtures; neither
# counts. "Config-like" structs are the ones callers fill in to size or tune
# a layer. A function or method under internal/ has no non-test caller when
# its name occurs, comments aside, in no non-test file (bench/ included) but
# where it is defined: a crude grep, since a name shared with a used one
# counts as used. The line after the count lists those names, sorted.
GO_FILES    = find . -name '*.go' ! -path './bench/*' ! -path '*/testdata/*'
GO_NONTEST  = $(GO_FILES) ! -name '*_test.go'
CONFIG_LIKE = Config|Scale|Costs|CostModel|Profile|Geometry|Latencies
STRUCT_FIELDS = grep -a -cE '^	[A-Z][A-Za-z0-9_, ]* +[^ ]'
EXP_NONTEST = find internal/exp -maxdepth 1 -name '*.go' ! -name '*_test.go'
NO_CALLER   = { \
	find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec grep -hoE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*' {} + | grep -oE '[A-Z][A-Za-z0-9_]*$$'; \
	echo ---; \
	find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec sed 's://.*::' {} + | grep -oE '\b[A-Z][A-Za-z0-9_]*\b'; } | \
	awk '$$0 == "---" { uses = 1; next } !uses { def[$$0]++; next } { use[$$0]++ } END { for (k in def) if (use[k] <= def[k]) print k }'
census:
	@echo "non-test Go lines:              $$($(GO_NONTEST) -exec grep -h '' {} + | grep -c '')"
	@echo "test Go lines:                  $$($(GO_FILES) -name '*_test.go' -exec grep -h '' {} + | grep -c '')"
	@echo "packages:                       $$(go list ./... | grep -c '')"
	@echo "cmd/ binaries:                  $$(find cmd -mindepth 1 -maxdepth 1 -type d | grep -c '')"
	@echo "CLI flags:                      $$($(GO_NONTEST) -exec grep -hE 'flag\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?\(' {} + | grep -c '')"
	@echo "Config-like exported fields:    $$($(GO_NONTEST) -exec grep -Pzo '(?s)type \w*($(CONFIG_LIKE)) struct \{.*?\n\}\n' {} + | $(STRUCT_FIELDS))"
	@echo "exp exported identifiers:       $$(( \
		$$($(EXP_NONTEST) -exec grep -hE '^func (\([^)]*\) )?[A-Z]|^type [A-Z]' {} + | grep -c '') + \
		$$($(EXP_NONTEST) -exec grep -Pzo '(?s)\nconst \(.*?\n\)\n' {} + | grep -a -cE '^	[A-Z]') + \
		$$($(EXP_NONTEST) -exec grep -Pzo '(?s)\ntype [A-Z]\w* struct \{.*?\n\}\n' {} + | $(STRUCT_FIELDS)) ))"
	@echo "exported Set* under internal/:  $$(find internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec grep -hE '^func \([^)]*\) Set[A-Z]' {} + | grep -c '')"
	@echo "exported with no non-test caller: $$($(NO_CALLER) | grep -c '')"
	@echo "  names: $$($(NO_CALLER) | sort | paste -sd ' ' -)"
