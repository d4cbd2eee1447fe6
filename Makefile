# LSBench — build / test / reproduce targets.

GO ?= go

.PHONY: all build vet test test-race race check cover loc loc-check bench bench-smoke bench-baseline bench-check bench-large bench-e2e figures examples clean

# bench-large dataset size. The committed default (1M) keeps CI minutes
# sane; the real tier is LARGE_N=100000000 (see EXPERIMENTS.md for the
# expected wall-clock and memory at that size).
LARGE_N ?= 1000000

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race tier: every package under the race detector. What it protects,
# by layer: the parallel orchestration (core.RunAll, cmd/figures -parallel)
# and the real-time driver; the cluster's health/poll/anti-entropy loops,
# which are genuinely concurrent with dispatch; the pager and disk LSM
# crash-safety suites, which hammer the same pool the Fig 1f runs fan out
# over; the real-time driver's after-the-fact trace recording, which
# gathers op streams from concurrently dispatching workers; and the session
# driver test, which races real workers over session-paced sources.
test-race:
	$(GO) test -race ./...

race: test-race

# check is the full local CI gate: build, vet, tier-1 tests, race tier.
check: build vet test test-race

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# loc prints the non-test Go line count ROADMAP item 2 tracks; loc-check is
# the ratchet on it: the count may not exceed the number committed in
# LOC_MAX. A PR that shrinks the tree lowers LOC_MAX to its own `make loc`;
# one that must grow (a [benchmark] PR) raises it in the open.
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

loc-check:
	@n=$$($(MAKE) -s loc); max=$$(cat LOC_MAX); \
	if [ $$n -gt $$max ]; then echo "loc-check: $$n non-test Go lines > LOC_MAX $$max"; exit 1; fi; \
	echo "loc-check: $$n <= $$max"

# One bench target per paper artifact; -benchtime=1x regenerates every
# series once (the figure experiments are full runs per iteration). The
# large-scale tier is excluded — run it via bench-large, which sizes the
# dataset explicitly.
bench:
	$(GO) test -bench=. -skip='^BenchmarkLarge' -benchmem -benchtime=1x ./...

# bench-smoke runs every benchmark with no unit tests — a cheap CI guard
# that the bench harnesses (including the batched-dispatch micro-bench)
# still build and complete. Three single-iteration shots per benchmark are
# teed through benchguard (which keeps the best of the three) into
# BENCH_smoke.json for the regression gate; -benchmem records allocs/op so
# the gate also catches allocation regressions on the hot paths.
bench-smoke:
	$(GO) test -bench=. -skip='^BenchmarkLarge' -benchmem -benchtime=1x -count=3 -run='^$$' ./... | $(GO) run ./cmd/benchguard -emit BENCH_smoke.json

# bench-large runs the datagen-scale tier (BenchmarkLarge*) at LARGE_N keys
# — 100M by default in EXPERIMENTS.md, 1M here so CI finishes in minutes.
# No -race: the tier measures timing, and the race tier already covers the
# same parallel bulk-load/train code paths functionally.
bench-large:
	LSBENCH_LARGE_N=$(LARGE_N) $(GO) test -bench='^BenchmarkLarge' -benchmem -benchtime=1x -count=3 -run='^$$' -timeout=60m . | $(GO) run ./cmd/benchguard -emit BENCH_large.json

# bench-baseline promotes the latest smoke emission to the committed
# baseline. Rerun (and commit the result) when the benchmark set changes
# or a deliberate perf change moves the needle.
bench-baseline: bench-smoke
	cp BENCH_smoke.json BENCH_baseline.json

# bench-check fails when any heavyweight benchmark regressed more than
# 25% in ns/op against the committed baseline.
bench-check: bench-smoke
	$(GO) run ./cmd/benchguard -compare -max-regress 0.25

# bench-e2e runs the repository benchmark's end-to-end pass (BENCHMARK.json:
# four workloads, each checked against its oracle and its digest) and, when
# every workload came out correct, appends one record to BENCH_e2e.jsonl —
# commit, date, toolchain, CPU and the run's last stdout line — so the
# per-PR trajectory of the end-to-end metrics is a committed file: run it on
# the final tree of a PR and commit the new line. The per-layer trace is
# `$(GO) run ./benchmark -trace 1`; benchmark/README.md describes both.
bench-e2e:
	@res=$$($(GO) run ./benchmark -trace 0 | tee /dev/stderr | tail -n 1); \
	case "$$res" in \
		*'"correct":false'*|[!{]*|'') echo "bench-e2e: run failed, nothing recorded" >&2; exit 1;; \
	esac; \
	printf '{"commit":"%s","date":"%s","go":"%s","cpu":"%s","result":%s}\n' \
		"$$(git describe --always --dirty)" "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$$($(GO) env GOVERSION)" \
		"$$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)" "$$res" >> BENCH_e2e.jsonl

# Regenerate every figure, lesson ablation, and extension experiment.
figures:
	$(GO) run ./cmd/figures

figures-full:
	$(GO) run ./cmd/figures -scale full

figures-csv:
	$(GO) run ./cmd/figures -csv out/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/driftstorm
	$(GO) run ./examples/optimizersla
	$(GO) run ./examples/tuningcost
	$(GO) run ./examples/holdout
	$(GO) run ./examples/synthesize
	$(GO) run ./examples/chaosdrill

clean:
	rm -f cover.out test_output.txt bench_output.txt BENCH_smoke.json BENCH_large.json
	rm -rf out/
