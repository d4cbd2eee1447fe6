# LSBench — build / test / reproduce targets.

GO ?= go

.PHONY: all build vet fmt-check test test-race race check cover loc loc-check bench bench-smoke bench-baseline bench-check bench-large bench-e2e bench-pairs identity figures clean

# bench-large dataset size. The committed default (1M) keeps CI minutes
# sane; the real tier is LARGE_N=100000000 (see EXPERIMENTS.md for the
# expected wall-clock and memory at that size).
LARGE_N ?= 1000000

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file is not gofmt-formatted, listing them.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt-check: not gofmt-formatted:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The race tier: every package under the race detector. What it protects,
# by layer: the parallel orchestration (core.RunAll, cmd/figures -parallel);
# the service's job queue and HTTP handlers; the netdriver server's
# per-connection goroutines; and the pager and disk LSM crash-safety suites,
# which hammer the same pool the Fig 1f runs fan out over. (A run is one
# goroutine under either clock and has nothing of its own to race.)
test-race:
	$(GO) test -race ./...

race: test-race

# check is the full local CI gate: build, vet, formatting, tier-1 tests,
# race tier.
check: build vet fmt-check test test-race

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# loc prints the non-test line count ROADMAP item 2 tracks, Go and
# assembly (*.s) alike; loc-check is the ratchet on it: the count may not
# exceed the number committed in LOC_MAX. A PR that shrinks the tree lowers
# LOC_MAX to its own `make loc`; one that must grow (a [benchmark] PR)
# raises it in the open.
loc:
	@find . \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' | xargs cat | wc -l

loc-check:
	@n=$$($(MAKE) -s loc); max=$$(cat LOC_MAX); \
	if [ $$n -gt $$max ]; then echo "loc-check: $$n non-test lines > LOC_MAX $$max"; exit 1; fi; \
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
# the final tree of a PR and commit the new line. It refuses a tree with
# uncommitted changes to tracked files, whose record would name a commit
# that is not the code it measured. The per-layer trace is
# `$(GO) run ./benchmark -trace 1`; benchmark/README.md describes both.
bench-e2e:
	@if [ -n "$$(git status --porcelain --untracked-files=no)" ]; then \
		echo "bench-e2e: tracked files have uncommitted changes, so the record could not name the code it measured; commit them first:" >&2; \
		git status --short --untracked-files=no >&2; exit 1; \
	fi
	@res=$$($(GO) run ./benchmark -trace 0 | tee /dev/stderr | tail -n 1); \
	case "$$res" in \
		*'"correct":false'*|[!{]*|'') echo "bench-e2e: run failed, nothing recorded" >&2; exit 1;; \
	esac; \
	printf '{"commit":"%s","date":"%s","go":"%s","cpu":"%s","result":%s}\n' \
		"$$(git describe --always)" "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$$($(GO) env GOVERSION)" \
		"$$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)" "$$res" >> BENCH_e2e.jsonl

# bench-pairs is the paired comparison a perf claim rests on, as a tool:
#   make bench-pairs PARENT=<rev> W=<workload> SEED=<n> [N=10]
# It unpacks PARENT into a temp dir (git archive: nothing is left behind in
# .git), builds that tree's ./benchmark and the working tree's, and runs N
# pairs of `-workload W -seed SEED -trace 0`, alternating which side goes
# first, each binary from its own directory. Every pair is printed; then, per
# end-to-end metric of BENCHMARK.json, each side's quartiles and median
# (Python's exclusive method, as benchmark/stats.go), the ratio of the medians
# and in how many pairs the change read better (ties count for neither). A run
# that is not `"correct":true` stops it. Shell and awk only: both sides run
# their own benchmark code, and `make loc` does not see the tool.
N ?= 10
define BENCH_PAIRS_AWK
function sorted(side, m, out,   i, j, t) {
	for (i = 1; i <= n[side]; i++) out[i] = v[side, m, i]
	for (i = 2; i <= n[side]; i++) for (j = i; j > 1 && out[j-1] > out[j]; j--) { t = out[j]; out[j] = out[j-1]; out[j-1] = t }
}
function quartile(s, cnt, i,   p, j) {
	if (cnt < 2) return s[1]
	p = i * (cnt + 1) / 4; j = int(p)
	if (j < 1) j = 1
	if (j > cnt - 1) j = cnt - 1
	return s[j] * (1 - (p - j)) + s[j+1] * (p - j)
}
FILENAME == ARGV[1] {
	if (/"end_to_end"/) e2e = 1
	if (/"per_layer"/) e2e = 0
	if (e2e && match($$0, /"name": *"[^"]*"/)) { name = substr($$0, RSTART, RLENGTH); gsub(/"name": *"|"/, "", name); names[++nm] = name }
	if (e2e && /"better": *"higher"/) higher[name] = 1
	next
}
{
	side = FILENAME == ARGV[2] ? "parent" : "change"; n[side]++
	for (k = 1; k <= nm; k++) if (match($$0, "\"" names[k] "\":.\"value\":[^,]*")) { x = substr($$0, RSTART, RLENGTH); sub(/.*:/, "", x); v[side, names[k], n[side]] = x + 0 }
}
END {
	for (k = 1; k <= nm; k++) {
		m = names[k]; wins = 0
		for (i = 1; i <= n["change"]; i++) { d = v["change", m, i] - v["parent", m, i]; if (higher[m] ? d > 0 : d < 0) wins++ }
		sorted("parent", m, p); sorted("change", m, c)
		pm = quartile(p, n["parent"], 2); cm = quartile(c, n["change"], 2)
		printf "%-14s %-6s parent q1 %.6g median %.6g q3 %.6g | change q1 %.6g median %.6g q3 %.6g | change/parent %.4f | change better in %d/%d\n", m, higher[m] ? "higher" : "lower", quartile(p, n["parent"], 1), pm, quartile(p, n["parent"], 3), quartile(c, n["change"], 1), cm, quartile(c, n["change"], 3), pm ? cm / pm : 0, wins, n["change"]
	}
}
endef
export BENCH_PAIRS_AWK
bench-pairs:
	@[ -n "$(PARENT)" ] && [ -n "$(W)" ] && [ -n "$(SEED)" ] || { echo 'usage: make bench-pairs PARENT=<rev> W=<workload> SEED=<n> [N=10]' >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir $$tmp/src $$tmp/parent $$tmp/change; \
	git archive $(PARENT) | tar -x -C $$tmp/src; \
	(cd $$tmp/src && $(GO) build -o $$tmp/parent/bench ./benchmark); \
	$(GO) build -o $$tmp/change/bench ./benchmark; \
	echo "bench-pairs: $(W), seed $(SEED), $(N) pairs, parent $$(git rev-parse --short $(PARENT)) vs $$(git describe --always --dirty)"; \
	run() { \
		(cd $$tmp/$$1 && ./bench -workload $(W) -seed $(SEED) -trace 0) > $$tmp/$$1/log || { cat $$tmp/$$1/log >&2; exit 1; }; \
		tail -n 1 $$tmp/$$1/log | grep '"correct":true' >> $$tmp/$$1.jsonl || { cat $$tmp/$$1/log >&2; echo "bench-pairs: $$1 run not correct" >&2; exit 1; }; \
		sed -n 's/.*virt_digest=\([0-9a-f]*\).*/\1/p' $$tmp/$$1/log >> $$tmp/$$1.digests; \
	}; \
	i=1; while [ $$i -le $(N) ]; do \
		if [ $$((i % 2)) -eq 1 ]; then first=parent; run parent; run change; else first=change; run change; run parent; fi; \
		echo "pair $$i ($$first first)"; \
		for side in parent change; do echo "  $$side $$(tail -n 1 $$tmp/$$side.jsonl | sed 's/.*"metrics"://; s/{"value"://g; s/,"unit":"[^"]*"}//g; s/}$$//')"; done; \
		i=$$((i + 1)); \
	done; \
	awk "$$BENCH_PAIRS_AWK" BENCHMARK.json $$tmp/parent.jsonl $$tmp/change.jsonl; \
	for side in parent change; do echo "virt_digest $$side: $$(sort -u $$tmp/$$side.digests | tr '\n' ' ')"; done

# identity is the byte-identity check a change that must not move any
# result rests on, as a tool:
#   make identity PARENT=<rev>
# It unpacks PARENT into a temp dir (git archive, as bench-pairs), builds
# that tree's figures, lsbench, lstrace and ./benchmark and the working
# tree's, and runs one suite with each side's binaries from its own
# directory: `figures -parallel 1 -csv` stdout and CSVs; `lsbench -example`,
# and that config under every catalog SUT; the config with its shift phase
# at 70 % limit-200 scans under every catalog SUT (hash is most of that
# step's time: a hash scan tests the whole table); the config under btree
# and rmi with IDENTITY_FAULTS injected (robustness panel, failure bar and
# fault ledger); the SHA-256 of `lstrace record` of the example; and each workload's
# `virt_digest` from `benchmark -seconds 1 -trace 0`. It prints `identical`,
# or the first file that differs with its diff and exits 1.
IDENTITY_SUTS = btree hash rmi alex kvstore disk-btree disk-lsm
IDENTITY_SCAN_SUTS = btree,hash,rmi,alex,kvstore,disk-btree,disk-lsm
IDENTITY_WORKLOADS = mem-point mem-drift disk-cold wire-rt
IDENTITY_FAULTS = slow@10ms-20ms:factor=8;crash@30ms;error@40ms-60ms
identity:
	@[ -n "$(PARENT)" ] || { echo 'usage: make identity PARENT=<rev>' >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir $$tmp/src $$tmp/parent $$tmp/change; \
	git archive $(PARENT) | tar -x -C $$tmp/src; \
	build() { for c in figures lsbench lstrace; do $(GO) build -o $$1/$$c ./cmd/$$c; done; $(GO) build -o $$1/bench ./benchmark; }; \
	(cd $$tmp/src && build $$tmp/parent); build $$tmp/change; \
	echo "identity: parent $$(git rev-parse --short $(PARENT)) vs $$(git describe --always --dirty)"; \
	for side in parent change; do (set -e; cd $$tmp/$$side; mkdir out; \
		./figures -parallel 1 -csv out/csv > out/figures.txt; \
		./lsbench -example > out/example.json; \
		for s in $(IDENTITY_SUTS); do ./lsbench -config out/example.json -suts $$s > out/example-$$s.txt; done; \
		sed 's/"mix": {"get": 0.3, "put": 0.7}/"mix": {"get": 0.2, "put": 0.05, "delete": 0.05, "scan": 0.7, "scanLimit": 200}/' out/example.json > scan.json; \
		grep -q '"scan": 0.7' scan.json || { echo "identity: the scan variant did not apply" >&2; exit 1; }; \
		./lsbench -config scan.json -suts $(IDENTITY_SCAN_SUTS) > out/scan.txt; \
		./lsbench -config out/example.json -suts btree,rmi -faults "$(IDENTITY_FAULTS)" > out/faults.txt; \
		./lstrace record -config out/example.json -o example.lstrace > /dev/null; \
		sha256sum < example.lstrace > out/lstrace.sha256; \
		for w in $(IDENTITY_WORKLOADS); do \
			./bench -workload $$w -seconds 1 -trace 0 > bench.log || { cat bench.log >&2; exit 1; }; \
			echo "$$w $$(grep -o 'virt_digest=[0-9a-f]*' bench.log)" >> out/virt_digest.txt; \
		done) || { echo "identity: the $$side suite failed" >&2; exit 1; }; done; \
	first=$$(cd $$tmp && diff -rq parent/out change/out | head -n 1); \
	if [ -z "$$first" ]; then echo identical; exit 0; fi; \
	echo "$$first"; (cd $$tmp && diff -r parent/out change/out | head -n 40); exit 1

# Regenerate every figure, lesson ablation, and extension experiment.
figures:
	$(GO) run ./cmd/figures

figures-full:
	$(GO) run ./cmd/figures -scale full

figures-csv:
	$(GO) run ./cmd/figures -csv out/

clean:
	rm -f cover.out test_output.txt bench_output.txt BENCH_smoke.json BENCH_large.json
	rm -rf out/
