# Build/verify targets for the ObfusMem reproduction.
#
#   make check   - tier-1 verify: build + full test suite
#   make vet     - static analysis: go vet (also over the nested perfbench
#                  module and the -tags benchtraj trajectory file, which
#                  go vet ./... does not build), and fails if any tracked
#                  non-testdata .go file is not gofmt-clean
#   make race    - test suite under the race detector in -short mode
#                  (runSuite's parallel fan-out, the shared metrics registry,
#                  and every concurrent test path; -short keeps CI runtime
#                  bounded and skips wall-clock assertions that race
#                  instrumentation would distort)
#   make race-full - the complete suite under the race detector
#   make bench PR=<n> - the evaluation benchmark harness, plus the
#                  wall-clock perf-trajectory gates of TestEmitBenchTrajectory,
#                  which write BENCH_PR<n>.json and compare it with the newest
#                  earlier snapshot from the same hardware (built only under
#                  -tags benchtraj, so go test ./... never runs them)
#   make bench-smoke - fast perf gate: the zero-alloc guards (event engine,
#                  obfus datapath on an untapped and on an observed bus,
#                  MD5 MAC and AES pad kernels, trace
#                  recorder spans and request scope, traced bus leg, core
#                  model drive loop, workload stream, with the Pareto
#                  sampler's differential seeds) plus short
#                  benchmarks of the event engine and the obfus datapath
#                  (untapped and observed);
#                  fails if the alloc guards regress (runs in CI)
#   make campaign-smoke - end-to-end crash/resume gate: runs a small real
#                  campaign, SIGKILLs it mid-grid, resumes, and fails unless
#                  the merged results are byte-identical to an uninterrupted
#                  run (runs in CI; see EXPERIMENTS.md "Running campaigns")
#   make profile - full-suite run with pprof CPU + heap profiles written to
#                  cpu.pprof / mem.pprof (see EXPERIMENTS.md "Profiling and
#                  benchmarking" for how to read them)
#   make lint    - obfuslint: the repo's own analyzer suite (determinism,
#                  eventref, hotpath, metricnames, secretflow, wireonly; see
#                  `go run ./cmd/obfuslint -list` and DESIGN.md
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
GOFMT ?= gofmt

.PHONY: check vet lint lint-fix race race-full bench bench-smoke campaign-smoke profile ci trace-demo

check:
	$(GO) build ./...
	$(GO) test ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags benchtraj .
	cd perfbench && $(GO) vet ./...
	@unformatted=$$($(GOFMT) -l $$(git ls-files '*.go' | grep -v testdata)); \
	if [ -n "$$unformatted" ]; then \
		echo "vet: not gofmt-clean (run make lint-fix):"; echo "$$unformatted"; exit 1; \
	fi

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
	$(GOFMT) -w $$(git ls-files '*.go' | grep -v testdata)
	$(MAKE) lint

race:
	$(GO) test -race -short ./...

race-full:
	$(GO) test -race ./...

bench:
	@if [ -z "$(PR)" ]; then echo "usage: make bench PR=<n> (writes BENCH_PR<n>.json)"; exit 2; fi
	$(GO) test -tags benchtraj -run TestEmitBenchTrajectory -bench . -benchmem . -args -pr=$(PR)

bench-smoke:
	$(GO) test -run 'TestScheduleFireRecycleZeroAllocs|TestReadWriteLegZeroAllocs|TestReadWriteLegObservedZeroAllocs|TestComputeZeroAllocs|TestPadZeroAllocs|TestEncryptBlock64ZeroAllocs|TestSpanZeroAllocs|TestRequestCycleZeroAllocs|TestTransferTracedZeroAllocs|TestRunZeroAllocsPerRequest|TestStreamNextZeroAllocs|FuzzBoundedParetoMatchesSpec' \
		-bench 'BenchmarkEngineChurn|BenchmarkBaselineChurn|BenchmarkReadWriteLeg|BenchmarkReadWriteLegObserved' \
		-benchtime 200ms -benchmem ./internal/sim ./internal/obfus ./internal/md5sim ./internal/aes ./internal/trace ./internal/bus ./internal/cpu ./internal/workload ./internal/xrand
	$(GO) test -run 'TestHotPathZeroAllocs|TestNoSilentlyLostRequests' ./internal/backend
	$(GO) run ./cmd/obfsim -exp backends -requests 1500 > /dev/null
	$(GO) run ./cmd/obfsim -exp leakage -requests 1500 > /dev/null
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
