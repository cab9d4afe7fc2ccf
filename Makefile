# Developer / CI entry points. `make ci` is the tier-1 gate plus the
# race-enabled test suite; `make lint` is the source gate (vet, gofmt, the
# pflint hot-path lock-discipline linter, and the pflint -alloc escape-
# analysis gate that keeps the Filter closure free of unaudited heap
# escapes); `make check` is the ruleset gate (the pfcheck static analyzer
# over every shipped rule base); `make verify` is the invariant gate (the
# pfverify symbolic verifier proving every shipped .inv file and the
# worldgen tenant invariant); `make analyze` bundles lint+check+verify as
# the single CI static-analysis job; `make bench-smoke` is a fast perf sanity
# pass; `make bench-hotpath` refreshes BENCH_hotpath.json, `make bench-ipc`
# refreshes BENCH_ipc.json, `make bench-obs` refreshes BENCH_obs.json
# (observability overhead), `make bench-rulescale` refreshes
# BENCH_rulescale.json (ns/op vs rule-base size through the compiled
# decision program), and `make bench-alloc` refreshes BENCH_alloc.json (allocs/op,
# bytes/op and tail latency on the armed hot path; `bench-alloc-smoke` is
# the CI variant that additionally fails if the open+close or stat rows
# allocate at all) so the perf trajectory is tracked across PRs.
# `make bench-trace` refreshes the decision-provenance half of
# BENCH_obs.json (tracing disabled vs sampled spans) and enforces the ≤10%
# sampled-tracing budget; `bench-trace-smoke` is the CI variant, which also
# runs the zero-alloc tracing tripwires.
# `make bench-worldscale` refreshes BENCH_worldscale.json — the worldgen +
# fleet stress bed (throughput and mediation latency percentiles vs world
# size up to a million inodes and fleet size, under live process churn and
# rule mutation); it takes minutes and is the perf-PR gate, while
# `bench-worldscale-smoke` is the seconds-long CI cell on the tiny world.
# `make bench-policy` refreshes BENCH_policy.json — the policy control
# plane (incremental vs full publish latency up to 10k rules, fleet
# propagation, open-path p99 disturbance while churning) with the hitless
# gates enforced; `bench-policy-smoke` is the trimmed CI variant.
# `make bench-verify` refreshes BENCH_verify.json — the symbolic
# verifier's full invariant-sweep wall clock vs rule-base size up to 10k
# rules, gated on every invariant proving inside the budget;
# `bench-verify-smoke` is the trimmed CI variant.

GO ?= go

.PHONY: all vet gofmt-check pflint pflint-alloc lint build test test-race ci perfbench-check check verify analyze bench-smoke bench-hotpath bench-ipc bench-obs bench-rulescale bench-rulescale-smoke bench-alloc bench-alloc-smoke bench-trace bench-trace-smoke bench-worldscale bench-worldscale-smoke bench-policy bench-policy-smoke bench-verify bench-verify-smoke

all: lint ci check verify

vet:
	$(GO) vet ./...

gofmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

pflint:
	$(GO) run ./cmd/pflint

pflint-alloc:
	$(GO) run ./cmd/pflint -alloc

lint: vet gofmt-check pflint pflint-alloc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

ci: vet build test-race perfbench-check

# The benchmark is a nested module (perfbench/go.mod), so `go build ./...`
# at the root never compiles it; build, vet and short-test it here so an
# API change that breaks the benchmark fails CI instead of the next run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Ruleset gate: the pfcheck static analyzer must pass (no error-severity
# findings) on every shipped example ruleset, the paper's Table 5 base, and
# the synthetic scale bases the benchmarks use.
check:
	for f in examples/rules/*.pft; do $(GO) run ./cmd/pfctl -check -f $$f || exit 1; done
	$(GO) run ./cmd/pfctl -check -standard
	$(GO) run ./cmd/pfctl -check -scale 100
	$(GO) run ./cmd/pfctl -check -scale 1200
	$(GO) run ./cmd/pfctl -check -scale 10000

# Verification gate: the pfverify symbolic verifier must prove every
# shipped invariant file against its ruleset (the paper's Table 5 base and
# the webserver example) and the built-in tenant non-interference
# invariant against a generated deployment's rule base.
verify:
	$(GO) run ./cmd/pfctl -verify -standard -inv examples/rules/standard.inv
	$(GO) run ./cmd/pfctl -verify -f examples/rules/webserver.pft -inv examples/rules/webserver.inv
	$(GO) run ./cmd/pfctl -verify -world tiny

# The whole static-analysis surface as one target (the ci.yml analyze
# job): vet + gofmt + both pflint modes, the pfcheck analyzer over every
# shipped rule base, and the pfverify invariant proofs.
analyze: lint check verify

# A quick pass over the hot-path benchmarks: single-thread latency
# (Table 6 open/stat), ruleset-size flatness, multi-goroutine scaling with
# the metrics layer enabled, and a short off/on overhead comparison
# emitting BENCH_obs.json.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkTable6/(stat|open\+close)/EPTSPC|BenchmarkRuleBaseScaling/eptchains' -benchtime 0.1s .
	PFBENCH_OBS=1 $(GO) test -run xxx -bench 'BenchmarkParallel' -benchtime 100x .
	$(GO) run ./cmd/pfbench -obs -iters 2000 -obs-json BENCH_obs.json

bench-hotpath:
	$(GO) run ./cmd/pfbench -parallel -iters 20000 -json BENCH_hotpath.json

bench-ipc:
	$(GO) run ./cmd/pfbench -ipc -iters 20000 -ipc-json BENCH_ipc.json

bench-obs:
	$(GO) run ./cmd/pfbench -obs -iters 20000 -obs-json BENCH_obs.json

# Decision-provenance overhead: the metrics off/on cells plus the tracing
# off/sampled cells in one BENCH_obs.json, with the sampled-tracing budget
# enforced (≤10% on the open path at the default period).
bench-trace:
	$(GO) run ./cmd/pfbench -obs -tracing -tracing-gate -iters 20000 -obs-json BENCH_obs.json

# CI variant: fewer iterations, the same combined artifact and gate, plus
# the allocation tripwires — tracing disabled must stay at 0 allocs/op on
# the armed open path, and even TraceEvery=1 span capture must not touch
# the heap.
bench-trace-smoke:
	$(GO) test -run 'TestZeroAllocTracingDisabled|TestSampledTracingAllocBounded' ./internal/lmbench/
	$(GO) run ./cmd/pfbench -obs -tracing -tracing-gate -iters 8000 -obs-json BENCH_obs.json

bench-rulescale:
	$(GO) run ./cmd/pfbench -rulescale -iters 50000 -rulescale-json BENCH_rulescale.json

# CI variant: fewer iterations and the 10k-rule cells dropped, but the same
# JSON artifact, so every PR still records the compiled-vs-linear curve.
bench-rulescale-smoke:
	$(GO) run ./cmd/pfbench -rulescale -iters 4000 -rulescale-max 1200 -rulescale-json BENCH_rulescale.json

bench-alloc:
	$(GO) run ./cmd/pfbench -alloc -iters 20000 -alloc-json BENCH_alloc.json

# CI variant: fewer iterations, same artifact, plus the hard gate — the run
# fails if the single-syscall file workloads allocate at all.
bench-alloc-smoke:
	$(GO) run ./cmd/pfbench -alloc -alloc-gate -iters 4000 -alloc-json BENCH_alloc.json

# The full sweep: small/medium/large worlds (the large preset crosses a
# million inodes) × 4/8-instance fleets, 2s of churned traffic per cell.
# Run this on performance PRs; it is the standing regression bed.
bench-worldscale:
	$(GO) run ./cmd/pfbench -worldscale -worldscale-secs 2 -worldscale-json BENCH_worldscale.json

# CI variant: the tiny world and a small fleet for a fraction of a second
# per cell — proves the bed runs (conservation, no unexpected verdicts)
# without holding the pipeline for minutes.
bench-worldscale-smoke:
	$(GO) run ./cmd/pfbench -worldscale -worldscale-sizes tiny,small -worldscale-fleets 2 -worldscale-secs 0.3 -worldscale-json BENCH_worldscale_smoke.json

# Policy control plane: publish latency full-vs-incremental at
# 100/1200/10000 rules, canary propagation across a policyd fleet, and
# open-path p99 while updates stream in. The gate requires a >=10x
# incremental win at 10k rules, zero stale verdicts after any completed
# publish, verdict conservation, and <=10% best-round p99 disturbance.
bench-policy:
	$(GO) run ./cmd/pfbench -policy -policy-gate -iters 20000 -policy-json BENCH_policy.json

# CI variant: the 10k cells dropped and fewer publishes/opens per cell,
# with the same artifact shape and the same hitless gates (the speedup bar
# scales down with the trimmed base).
bench-policy-smoke:
	$(GO) run ./cmd/pfbench -policy -policy-gate -iters 6000 -policy-publishes 120 -policy-max 1200 -policy-json BENCH_policy_smoke.json

# Verifier scaling: full invariant-sweep wall clock at 100/1200/10000
# rules, with the gate enforcing that every invariant proves and the 10k
# sweep stays under the recorded budget.
bench-verify:
	$(GO) run ./cmd/pfbench -verify -verify-gate -verify-json BENCH_verify.json

# CI variant: the 10k cell dropped, same artifact shape and gates.
bench-verify-smoke:
	$(GO) run ./cmd/pfbench -verify -verify-gate -verify-max 1200 -verify-json BENCH_verify_smoke.json
