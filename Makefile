GO ?= go

# Third-party checkers, pinned and fetched on demand via `go run` so
# they never enter go.mod. Both need network on first use; lint-extra
# probes for that and degrades to a warning offline, while CI (which
# always has network) treats failures as hard.
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK = golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: all build test verify lint paperlint lint-extra bench bench-trace bench-kernels bench-shard bench-walk bench-report golden golden-update paper

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# paperlint runs the repository's own invariant analyzers (package
# twopage/internal/analysis): determinism, hotalloc (interprocedural),
# powtwo, ctxcheck, errfmt, mergecheck, keycheck, deprcheck, plus the
# stale-suppression audit. Zero tolerance: any unsuppressed diagnostic
# fails the build. deprcheck subsumes the old grep-based
# deprecation-gate target: uses of Deprecated-marked identifiers
# outside their defining package are findings, resolved by object so a
# same-named current field is untouched.
paperlint:
	$(GO) run ./cmd/paperlint ./...

# lint is the fast local loop: just the invariant analyzers.
lint: paperlint

# lint-extra layers the pinned third-party checkers on top. Offline the
# tools cannot be fetched; warn and continue so air-gapped development
# still works (CI runs them for real).
lint-extra:
	@$(GO) run $(STATICCHECK) ./... \
		|| { [ "$(CI)" = "true" ] && exit 1 \
		|| echo "warning: staticcheck unavailable or failed (offline?); CI will enforce it"; }
	@$(GO) run $(GOVULNCHECK) ./... \
		|| { [ "$(CI)" = "true" ] && exit 1 \
		|| echo "warning: govulncheck unavailable or failed (offline?); CI will enforce it"; }

# verify is the pre-merge gate: static checks (gofmt, vet, then the
# paperlint invariant suite, then the pinned external checkers), a full
# build, the test suite under the race detector (the engine is
# concurrent; races are correctness bugs here, not style), then vet and
# tests for perfbench/. The benchmark is its own Go module, so the
# root's ./... never compiles it and an API change could break it
# unnoticed; its tests (pinned counter digests included) run without
# -race, which makes them about fifteen times slower.
verify:
	@unformatted=$$(gofmt -l .); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(MAKE) paperlint
	$(MAKE) lint-extra
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# bench runs every benchmark in benchstat-friendly form: no unit tests
# mixed in (-run '^$'), allocation counts on, and repeated samples so
# `benchstat old.txt new.txt` has variance to work with.
# Usage: make bench | tee new.txt
COUNT ?= 6
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(COUNT) ./...

# bench-trace regenerates BENCH_trace.json: v1-vs-v2 trace size and
# decode throughput over the real workload generators.
bench-trace:
	$(GO) test -run TestTraceBenchReport -tracebench -count 1 .

# bench-kernels regenerates BENCH_kernels.json: the converted hot-state
# kernels (internal/htab and the arena page table) against their
# pre-conversion Go-map baselines (internal/kernelref), plus the
# end-to-end experiment-suite wall time at a fixed scale.
bench-kernels:
	$(GO) test -run TestKernelBenchReport -kernelbench -count 1 .

# bench-shard regenerates BENCH_shard.json: sharded-vs-serial wall time
# per shard count plus the residual miss error after warm-up (DESIGN.md
# §10). Speedup is capped by the core count; on a one-CPU box the
# sharded rows are expected to come out slower than serial.
SHARD_BENCH_REFS ?= 400000
bench-shard:
	$(GO) test -run TestShardBenchReport -shardbench -shardbenchrefs $(SHARD_BENCH_REFS) -count 1 .

# bench-walk regenerates BENCH_walk.json: simulator throughput and the
# emergent cycles-per-walk for the flat 25-cycle penalty against the
# modeled multi-level walk (DESIGN.md §12), with and without page-walk
# caches. The cycle columns are deterministic; only the timings churn.
WALK_BENCH_REFS ?= 400000
bench-walk:
	$(GO) test -run TestWalkBenchReport -walkbench -walkbenchrefs $(WALK_BENCH_REFS) -count 1 .

# bench-report regenerates BENCH_run.json: the full experiment suite's
# run report (internal/obs schema) at a reduced scale. The counter
# sections are deterministic for a given scale, so a diff against the
# committed file shows exactly which simulation volumes an intentional
# change moved (wall_ms/parallelism are the only fields expected to
# churn).
REPORT_SCALE ?= 0.05
bench-report:
	$(GO) run ./cmd/paper -scale $(REPORT_SCALE) -stats BENCH_run.json all > /dev/null

# golden checks the rendered output of every experiment byte-for-byte
# against testdata/golden; golden-update re-blesses the corpus after an
# intentional output change.
golden:
	$(GO) test -run TestGolden -count 1 .

golden-update:
	$(GO) test -run 'TestGolden$$' -update -count 1 .

# Regenerate every paper table/figure at full scale.
paper:
	$(GO) run ./cmd/paper all
