# Developer / CI entry points. `make ci` is the tier-1 gate plus the
# race-enabled test suite, the perfbench module's vet and short tests, and
# a short run of each native fuzz target (`make fuzz-smoke`); `make lint` is the source gate (vet, gofmt, the
# pflint hot-path lock-discipline linter, and the pflint -alloc escape-
# analysis gate that keeps the Filter closure free of unaudited heap
# escapes); `make check` is the ruleset gate (the pfcheck static analyzer
# over every shipped rule base); `make verify` is the invariant gate (the
# pfverify symbolic verifier proving every shipped .inv file and the
# worldgen tenant invariant); `make analyze` bundles lint+check+verify as
# the single CI static-analysis job. The benches run through one harness,
# `cmd/pfbench` over internal/lmbench's cell runner: `make bench` runs every
# bench at full size and refreshes each checked-in BENCH_<name>.json (the
# worldscale sweep builds a million-inode world; the whole run takes a few
# minutes), and `make bench-smoke` is the CI pass — the zero-alloc tracing
# tripwires, a short `go test -bench` pass over the hot-path benchmarks, and
# every gated bench on its trimmed -smoke grid, written to the gitignored
# BENCH_<name>_smoke.json. Each gate runs whenever its bench runs: alloc
# (0 allocs/op on open+close and stat, sendmmsg-8 within its budget), obs
# (sampled spans ≤10% over counters only in the best paired round), policy
# (hitless publish) and verify (every invariant proves inside the budget).

GO ?= go

.PHONY: all vet gofmt-check pflint pflint-alloc lint build test test-race ci perfbench-check fuzz-smoke check verify analyze bench bench-smoke

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

ci: vet build test-race perfbench-check fuzz-smoke

# The benchmark is a nested module (perfbench/go.mod), so `go build ./...`
# at the root never compiles it; build, vet and short-test it here so an
# API change that breaks the benchmark fails CI instead of the next run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Native fuzz targets over untrusted input, a short run each on top of the
# checked-in seed corpora (testdata/fuzz) that `go test` always replays.
# Each minimization gets one run of the target, so a 10 s run spends its
# budget fuzzing rather than shrinking newly interesting inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseInvariants$$' -fuzztime 10s -fuzzminimizetime 1x ./internal/pfverify
	$(GO) test -run '^$$' -fuzz '^FuzzPolicydLine$$' -fuzztime 10s -fuzzminimizetime 1x ./internal/policyd
	$(GO) test -run '^$$' -fuzz '^FuzzUnwind$$' -fuzztime 10s -fuzzminimizetime 1x ./internal/ustack
	$(GO) test -run '^$$' -fuzz '^FuzzParseRule$$' -fuzztime 10s -fuzzminimizetime 1x ./internal/pftables
	$(GO) test -run '^$$' -fuzz '^FuzzSpanDecode$$' -fuzztime 10s -fuzzminimizetime 1x ./internal/obs

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

# Every bench at full size, each report written to BENCH_<name>.json and
# each gate enforced; `go run ./cmd/pfbench -json <name>` refreshes one.
bench:
	$(GO) run ./cmd/pfbench -json table6 hotpath ipc obs rulescale alloc policy verify worldscale

# The CI pass: the observability tripwires (the armed open path stays at 0
# allocs/op with counters only, with spans sampled at the default period
# and at period 1, and a denied open publishing its DROP span), single-
# thread latency and ruleset-size flatness, the parallel benchmarks with
# the metrics layer attached, and every gated bench plus the rule-base and
# worldscale beds on their trimmed grids.
bench-smoke:
	$(GO) test -run 'TestZeroAllocTracingDisabled|TestSampledTracingAllocBounded|TestZeroAllocDeniedOpen' ./internal/lmbench/
	$(GO) test -run xxx -bench 'BenchmarkTable6/(stat|open\+close)/EPTSPC|BenchmarkRuleBaseScaling/eptchains' -benchtime 0.1s .
	PFBENCH_OBS=1 $(GO) test -run xxx -bench 'BenchmarkParallel' -benchtime 100x .
	$(GO) run ./cmd/pfbench -smoke -json obs rulescale alloc worldscale policy verify
