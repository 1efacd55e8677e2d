# Build/verify targets for the ObfusMem reproduction.
#
#   make check   - tier-1 verify: build + full test suite
#   make vet     - static analysis
#   make race    - test suite under the race detector in -short mode
#                  (runSuite's parallel fan-out, the shared metrics registry,
#                  and every concurrent test path; -short keeps CI runtime
#                  bounded and skips wall-clock assertions that race
#                  instrumentation would distort)
#   make race-full - the complete suite under the race detector
#   make race-shards - the shard-synchronization paths (internal/sim,
#                  internal/bus) under the race detector WITHOUT -short:
#                  the conservative-lookahead worker loops, mailbox rings,
#                  and termination protocol, including the long engine
#                  tests that make race skips (runs in CI)
#   make bench   - the evaluation benchmark harness, plus the wall-clock
#                  perf-trajectory gates of TestEmitBenchTrajectory, which
#                  rewrite the BENCH_*.json snapshot (built only under
#                  -tags benchtraj, so go test ./... never runs them)
#   make bench-smoke - fast perf gate: the zero-alloc guards (event engine,
#                  obfus datapath, MD5 MAC and AES pad kernels) plus short
#                  benchmarks of the event engine and the obfus datapath;
#                  fails if the alloc guards regress (runs in CI)
#   make campaign-smoke - end-to-end crash/resume gate: runs a small real
#                  campaign, SIGKILLs it mid-grid, resumes, and fails unless
#                  the merged results are byte-identical to an uninterrupted
#                  run (runs in CI; see EXPERIMENTS.md "Running campaigns")
#   make profile - full-suite run with pprof CPU + heap profiles written to
#                  cpu.pprof / mem.pprof (see EXPERIMENTS.md "Profiling and
#                  benchmarking" for how to read them)
#   make lint    - obfuslint: the repo's own analyzer suite (determinism,
#                  hotpath, eventref, metricnames; see DESIGN.md
#                  "Machine-checked invariants"), plus golangci-lint and
#                  govulncheck when installed (both skipped, not failed,
#                  when absent so the frozen toolchain image still lints)
#   make lint-fix - gofmt the tree, then re-lint
#   make ci      - everything CI runs: lint + vet + check + race + bench-smoke
#   make trace-demo - traced run of the milc profile: Chrome trace JSON
#                  (load trace.json in Perfetto), attribution report, and
#                  a 5us metrics time series (see EXPERIMENTS.md "Tracing
#                  a run")

GO ?= go

.PHONY: check vet lint lint-fix race race-full race-shards bench bench-smoke campaign-smoke profile ci trace-demo

check:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) build ./...
	$(GO) run ./cmd/obfuslint ./...
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "lint: golangci-lint not installed; skipping (CI installs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (CI installs it)"; \
	fi

lint-fix:
	gofmt -w $$(git ls-files '*.go' | grep -v testdata)
	$(MAKE) lint

race:
	$(GO) test -race -short ./...

race-full:
	$(GO) test -race ./...

race-shards:
	$(GO) test -race -count=1 ./internal/sim/... ./internal/bus/...

bench:
	$(GO) test -tags benchtraj -run TestEmitBenchTrajectory -bench . -benchmem .

bench-smoke:
	$(GO) test -run 'TestScheduleFireRecycleZeroAllocs|TestReadWriteLegZeroAllocs|TestComputeZeroAllocs|TestPadZeroAllocs|TestEncryptBlock64ZeroAllocs' \
		-bench 'BenchmarkEngineChurn|BenchmarkBaselineChurn|BenchmarkReadWriteLeg' \
		-benchtime 200ms -benchmem ./internal/sim ./internal/obfus ./internal/md5sim ./internal/aes
	$(GO) test -run 'TestHotPathZeroAllocs|TestNoSilentlyLostRequests' ./internal/backend
	$(GO) run ./cmd/obfsim -exp backends -requests 1500 > /dev/null
	$(GO) run ./cmd/obfsim -exp leakage -requests 1500 > /dev/null
	@echo "bench-smoke: sharded-engine byte-identity (shards=1 vs shards=8)"
	@$(GO) run ./cmd/obfsim -exp openloop -requests 800 -shards 1 > .openloop_s1.txt 2>/dev/null; \
	$(GO) run ./cmd/obfsim -exp openloop -requests 800 -shards 8 > .openloop_s8.txt 2>/dev/null; \
	if cmp -s .openloop_s1.txt .openloop_s8.txt; then \
		echo "bench-smoke: shards=1 and shards=8 byte-identical"; rm -f .openloop_s1.txt .openloop_s8.txt; \
	else \
		echo "bench-smoke: SHARD DETERMINISM VIOLATION (outputs differ)"; diff .openloop_s1.txt .openloop_s8.txt; exit 1; \
	fi
	$(MAKE) campaign-smoke

campaign-smoke:
	sh scripts/campaign_smoke.sh

profile:
	$(GO) run ./cmd/obfsim -exp all -requests 5000 \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "profiles written; inspect with: $(GO) tool pprof -top cpu.pprof"

ci: lint vet check race bench-smoke campaign-smoke

trace-demo:
	$(GO) run ./cmd/obfsim -exp none -requests 4000 \
		-trace-out trace.json -attrib-out attrib.json \
		-sample-every 5 -sample-out samples.csv
