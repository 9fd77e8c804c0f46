# Tier-1 gate: `make ci` is what CI and pre-merge checks run.
GO ?= go

# COVER_BASELINE is the committed total-statement-coverage floor for
# `make cover-check`. Update it deliberately (and review why) when
# coverage genuinely moves; it should trail the measured total by a
# small margin so routine refactors don't trip it.
COVER_BASELINE ?= 84.2

.PHONY: ci fmt vet staticcheck build test race bench-smoke bench-compare cover cover-check \
	fuzz-smoke fuzz smoke-tad chaos-smoke chaos-cluster loadtest-smoke stream-smoke

# fuzz-smoke, chaos-smoke and chaos-cluster are not in ci: race already
# runs every fuzz seed corpus and every TestChaos* test (none carries a
# build tag or a -short skip). They stay as targets for running alone.
CI_TARGETS = fmt vet staticcheck build race bench-smoke cover-check loadtest-smoke stream-smoke smoke-tad
ci: $(addprefix timed-,$(CI_TARGETS))

# Wall-time budgets in seconds, measured on a 2-vCPU host (go1.24.0)
# with a warm build cache; budget_test is tier-1 (`make timed-test`).
# timed-<target> runs the target, prints its wall time, and names it on
# stderr as OVER when it took more than twice its budget. It never fails
# on time: that host has phases 1.6-1.9x slower than its fast one.
budget_test = 24
budget_race = 108
budget_cover-check = 28
budget_bench-smoke = 11
budget_smoke-tad = 7
budget_stream-smoke = 1
budget_loadtest-smoke = 2

timed-%:
	@start=$$(date +%s%N); $(MAKE) --no-print-directory $* || exit 1; \
	ms=$$(( ($$(date +%s%N) - start) / 1000000 )); \
	echo "time: $* $$((ms / 1000)).$$((ms % 1000 / 100))s$(if $(budget_$*), (budget $(budget_$*)s))"; \
	$(if $(budget_$*),if [ $$ms -gt $$((2000 * $(budget_$*))) ]; then \
		echo "OVER: $* took $$((ms / 1000))s: more than twice its $(budget_$*)s budget" >&2; fi)

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The smoke-tagged files (cmd/pdt-tad's end-to-end test) are not part of
# a plain build, so vet them explicitly alongside the default tag set.
vet:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./...

# staticcheck is optional tooling: run it when the host has it, skip
# loudly when it does not (the gate must not require network installs).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is its own module that compiles against the analyzer packages,
# and `go build ./... && go test ./...` does not reach it: an API rename
# that breaks the benchmark is otherwise invisible until a benchmark run
# fails. Vet and unit-test it (~15 s); this runs no workload.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# Compare two benchmark results (or comma-separated lists of results,
# compared by their medians): make bench-compare A=out/a.json B=out/b.json
# Paths are relative to bench/. See bench/README.md.
bench-compare:
	$(GO) run -C bench . -compare $(A) $(B)

# Coverage: `make cover` prints per-package and total statement
# coverage; `make cover-check` additionally fails when the total drops
# below the committed COVER_BASELINE floor.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | grep '^total:'

cover-check: cover
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit !(t+0 >= b+0) }' || \
		{ echo "coverage regression: $$total% < committed baseline $(COVER_BASELINE)%"; exit 1; }; \
	echo "coverage ok: $$total% >= baseline $(COVER_BASELINE)%"; \
	rm -f cover.out

# Replay the checked-in fuzz corpora (seed inputs + past findings) as
# plain tests — fast, deterministic, no fuzzing engine. Every Fuzz target
# in the module, found by name as `make fuzz` finds them, so a new one is
# covered without editing this list.
fuzz-smoke:
	$(GO) test -run '^Fuzz' ./...

# Service-level chaos drill under the race detector: kill the daemon at
# every job phase and assert journal replay converges byte-identically
# (cmd/pdt-tad), plus the disk-fault/corruption sweeps over the durable
# tier (internal/integration). Cluster chaos has its own target below.
chaos-smoke:
	$(GO) test -race -run 'TestChaos' -skip 'TestChaosCluster' ./cmd/pdt-tad ./internal/integration ./internal/jobs

# Multi-replica chaos drill under the race detector: partition or crash
# one replica of a three-node ring mid-request and assert every response
# stays byte-identical to single-node with no 5xx, the victim's breaker
# opens, and it re-closes after the partition heals.
chaos-cluster:
	$(GO) test -race -run 'TestChaosCluster' ./cmd/pdt-tad

# Actual coverage-guided fuzzing (long; not in ci): every Fuzz target in
# the module, as `go test -list` finds them, 60s each.
fuzz:
	@list="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$list"; exit 1; }; \
	echo "$$list" | \
		awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
		while read pkg target; do \
			echo "fuzz $$target ($$pkg)"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 60s $$pkg || exit 1; \
		done

# End-to-end service smoke test: builds the real pdt-tad binary, starts
# it, and checks the operator contract — 200 on the golden trace, 413
# over the body limit, 429 under saturation, graceful SIGTERM drain.
smoke-tad:
	$(GO) test -tags smoke -run TestSmokeTAD ./cmd/pdt-tad

# Load gate: builds the real pdt-tad binary, starts a three-replica
# ring, and replays workload traces through pdt-load at concurrency —
# whole-body POSTs first, then full chunked-upload sessions. Fails on
# any 5xx/transport error or a p99 above LOADTEST_P99.
LOADTEST_P99 ?= 2s
loadtest-smoke:
	LOADTEST_P99=$(LOADTEST_P99) $(GO) test -tags smoke -run TestSmokeLoadRing ./cmd/pdt-load

# Bounded-RSS streaming gate: synthesizes a ~100 MB on-disk trace
# (>10x the stream window) and loads it through StreamLoader under a
# hard runtime memory limit, failing if the live heap ever grows past
# twice the window.
stream-smoke:
	$(GO) test -tags smoke -run TestSmokeStreamBoundedRSS ./internal/integration
