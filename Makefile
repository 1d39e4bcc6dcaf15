# Everything is plain `go` underneath. `make ci` runs what
# .github/workflows/ci.yml runs: the workflow calls these ci-* targets.
# Every gate is a correctness gate; performance is judged by the repo's
# benchmark alone (ci-perf, bench/README.md). ci-test includes the root
# TestReachability (reach_test.go): every declaration no served
# configuration reaches is listed in testdata/unreached.golden as ref or
# fixture, or the test fails.

GO ?= go
SOAK = $(GO) test -race -count=1 -timeout 600s ./cmd/discoload -run
# Latest committed trajectory point, the left side of a -compare.
BENCH_BASE = $(lastword $(sort $(wildcard bench/results/BENCH_*.json)))
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2025.1

CI = build test vet fmt lint race alloc faultmatrix feedback fuzz concurrency exec soak resultcache router perf
.PHONY: all build test race bench experiments fmt vet clean ci $(CI:%=ci-%)

all: build test
build ci-build:
	$(GO) build ./...
test ci-test:
	$(GO) test ./...
vet ci-vet:
	$(GO) vet ./...
race:
	$(GO) test -race ./...
fmt:
	gofmt -w .
# Every `go test` benchmark; PROFILE=<dir> adds CPU and heap profiles of
# the paper-scale root suite (`go tool pprof`; see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem ./...
ifdef PROFILE
	mkdir -p $(PROFILE)
	$(GO) test -run '^$$' -bench . -benchmem -cpuprofile $(PROFILE)/cpu.pprof \
		-memprofile $(PROFILE)/mem.pprof -o $(PROFILE)/bench.test .
endif
experiments: # the paper-scale evaluation tables (EXPERIMENTS.md)
	$(GO) run ./cmd/experiments
clean:
	$(GO) clean ./...
	rm -rf .tools bench/out

ci: $(CI:%=ci-%)

ci-fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
# Pinned staticcheck from PATH or .tools; offline it skips loudly.
ci-lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	elif GOBIN=$(CURDIR)/.tools $(GO) install $(STATICCHECK) 2>/dev/null; then $(CURDIR)/.tools/staticcheck ./...; \
	else echo "ci-lint: staticcheck not on PATH and $(STATICCHECK) not installable (offline?) — SKIPPED"; fi
# Everything that shares state across goroutines: rule registry, history
# recorder, concurrent prepares, mediator, wrapper server (executes on
# several connections at once), the buffer pools the stores share and
# whose rows answers alias, executions metering their own time beside
# each other, executor and spill breakers, per-connection frame readers,
# the bench smoke run.
ci-race:
	$(GO) test -race ./internal/core ./internal/history ./internal/optimizer ./internal/mediator \
		./internal/wrapper ./internal/netsim ./internal/engine ./internal/vexec ./internal/serving ./bench \
		./internal/relstore ./internal/filestore ./internal/objstore ./internal/types ./internal/feedback
# Allocation gates, skipped under -race: EstimateRoot and its search-table
# hits allocate nothing, a search on a fresh clone only its candidates, a
# warm batch ~0, Drain of a sort or aggregate nothing and of a pipelined
# root one slice, grouping, dup-elim and a hash-join build no allocation
# per key, a projection's first slab its batch, a 70-row answer
# under 128 KiB, a row frame encodes and decodes with a constant number
# of allocations, Server.Handle adds a constant to Mediator.Query, a
# second answer on one connection allocates nothing for its block, a
# Constant is 32 bytes, the object store's ReadAll and buffer-pool misses
# allocate nothing and its index read only its answer, the relational
# store's ReadAll nothing and a warm probe only its answer, a meter
# charge nothing, an int column's statistics at most two allocations
# whatever its length, and an index build fewer than its tree's leaves.
ci-alloc:
	$(GO) test -run 'Alloc|ConstantSize|Slab|ArenaReserve' -count=1 ./internal/core ./internal/optimizer ./internal/vexec \
		./internal/serving ./internal/proto ./internal/types ./internal/objstore ./internal/relstore ./internal/stats
ci-faultmatrix: # every injected fault recovers or degrades to a partial answer
	$(GO) test -race -run 'Fault|Remote|Injector|Resilience' ./internal/mediator ./internal/wrapper ./internal/netsim ./internal/experiments
ci-feedback: # extents mis-registered 10x are repaired by the workload; the probe runs the truth plan from round 2 (E10)
	$(GO) test -run 'TestFeedbackConvergence' -count=1 -v ./internal/experiments
# 30 s fuzzer smokes of every parser of outside input (frames: lines and blocks).
ci-fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/costlang
	$(GO) test -fuzz=FuzzParseFaultSpec -fuzztime=30s ./internal/netsim
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=30s ./internal/proto
	$(GO) test -fuzz=FuzzFeedbackSnapshot -fuzztime=30s ./internal/feedback
# Race-stress of the concurrent serving path (DESIGN.md §9), 3 repetitions,
# and two feedback-on serving runs that must agree bit for bit; core and
# optimizer for the rule folds and dispatch caches estimator clones share.
ci-concurrency:
	$(GO) test -race -count=3 \
		-run 'Concurrent|Race|Admission|PlanCache|Reprepare|Debounce|IdleTimeout|Overloaded|NormalizeSQL|Shutdown|StatsOp|ReregisterOp|SetLinkOp|Deterministic' \
		./internal/mediator ./internal/feedback ./internal/serving ./internal/core ./internal/optimizer
# The digest-checked chaos soaks (E11-E14): zero wedged clients, zero
# oracle mismatches — plain, under a spill budget, result cache on, and
# three replicas with one killed and restarted mid-run.
ci-soak:
	$(SOAK) 'TestSoak$$'
ci-exec:
	$(SOAK) 'TestSoakExecSpill'
ci-resultcache:
	$(GO) test -race -count=2 -run 'ResultCache|NormalizeSQL|PlanCacheStale|Hist' \
		./internal/resultcache ./internal/mediator ./internal/loadgen
	$(SOAK) 'TestSoakResultCache'
ci-router:
	$(GO) test -race -count=3 ./internal/router
	$(SOAK) 'TestSoakRouter'
# The one perf gate: the repo's benchmark, non-zero on any wrong answer.
# Verdicts need a host whose fingerprint matches the baseline's.
ci-perf:
	$(GO) run ./bench -out bench/out/ci.json
	@echo "ci-perf: on a host matching $(BENCH_BASE)'s fingerprint, run:"
	@echo "  $(GO) run ./bench -compare $(BENCH_BASE) bench/out/ci.json"
