// Package exp reproduces every table and figure of the paper's evaluation
// (Section 5) plus its security analysis (Section 6): one entry point per
// artefact, each returning a stats.Table whose rows mirror the published
// ones. See EXPERIMENTS.md for the paper-vs-measured record.
package exp

import (
	"runtime"

	"obfusmem/internal/cpu"
	"obfusmem/internal/metrics"
	"obfusmem/internal/sim"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// Options controls experiment scale.
type Options struct {
	// Requests per benchmark per configuration. The paper simulates 200M
	// instructions; our default covers the same behaviour statistically in
	// far fewer requests (distributions are stationary).
	Requests int
	Seed     uint64
	CPU      cpu.Config
	// Parallel fans benchmark runs out over a worker pool (deterministic
	// regardless: every run is independently seeded and results land in
	// per-job slots).
	Parallel bool
	// Workers bounds the pool when Parallel is set; 0 means
	// runtime.GOMAXPROCS(0), scaling with the machine instead of the old
	// hardcoded 8-slot semaphore.
	Workers int
	// Metrics, when non-nil, is shared by every system built for the
	// suite: all runs aggregate into one registry (instruments are
	// atomic, so this is safe under Parallel).
	Metrics *metrics.Registry
	// Interrupted, when non-nil, is polled by the worker pool before each
	// job dispatch; once it reports true no further runs start and the
	// suite returns with whatever completed (slots of undispatched jobs
	// stay zero). obfsim wires SIGINT to this so a long sweep cancels at
	// run granularity instead of dying mid-write.
	Interrupted func() bool
}

// workerCount resolves the effective pool size.
func (o Options) workerCount() int {
	if !o.Parallel {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options {
	return Options{Requests: 8000, Seed: 42, CPU: cpu.DefaultConfig(), Parallel: true}
}

// QuickOptions returns a reduced scale for unit tests and smoke runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Requests = 1500
	return o
}

// ModeSpec names one machine configuration under test.
type ModeSpec struct {
	Name string
	Cfg  system.Config
}

// suiteResult maps mode name -> benchmark name -> run result.
type suiteResult map[string]map[string]cpu.Result

// runSeed derives one benchmark's per-run seed from the global experiment
// seed. It hashes the FULL profile name (FNV-1a) — an earlier derivation
// used only len(Name)*131 + FootprintMB, so two benchmarks with the same
// name length and footprint collided and ran with identical machine-side
// randomness (session keys, dummy-address draws, ORAM position maps).
// The footprint is mixed in separately so equally-named profile variants in
// sweeps stay distinct. The mode under test is deliberately NOT an input:
// every mode must see the same stream for a benchmark, or paired
// comparisons (overhead = protected/baseline on the same trace) break.
func runSeed(global uint64, p workload.Profile) uint64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for i := 0; i < len(p.Name); i++ {
		h = (h ^ uint64(p.Name[i])) * fnvPrime64
	}
	return global ^ xrand.Mix64(h) ^ xrand.Mix64(uint64(p.FootprintMB))
}

// runSuite executes every benchmark under every mode on a worker pool of
// opts.workerCount() goroutines. Each job writes its result to a dedicated
// slot (no shared-map mutex on the run path); the result maps are
// pre-sized and assembled after the pool drains, so the output is
// identical for any worker count. A panicking run is recovered at the job
// boundary (RunJobs), the remaining runs complete, and the first panic is
// re-raised only after the pool drains — so a crash in one benchmark can
// no longer silently discard the rest of a long sweep mid-flight.
func runSuite(opts Options, specs []ModeSpec) suiteResult {
	profiles := workload.SPEC2006()
	type job struct {
		spec ModeSpec
		prof workload.Profile
	}
	jobs := make([]job, 0, len(specs)*len(profiles))
	for _, s := range specs {
		for _, p := range profiles {
			jobs = append(jobs, job{s, p})
		}
	}
	results := make([]cpu.Result, len(jobs))
	errs := RunJobs(opts.workerCount(), len(jobs), opts.Interrupted, func(i int) {
		j := jobs[i]
		cfg := j.spec.Cfg
		cfg.Seed = runSeed(opts.Seed, j.prof)
		cfg.Metrics = opts.Metrics
		sys := system.New(cfg)
		results[i] = cpu.Run(j.prof, opts.Requests, sys, opts.CPU, opts.Seed+7)
	})
	if err := firstError(errs); err != nil {
		panic(err)
	}
	out := make(suiteResult, len(specs))
	for _, s := range specs {
		out[s.Name] = make(map[string]cpu.Result, len(profiles))
	}
	for i, j := range jobs {
		out[j.spec.Name][j.prof.Name] = results[i]
	}
	return out
}

// runOne executes a single benchmark under a single config and also returns
// the system for counter inspection.
func runOne(opts Options, cfg system.Config, bench string) (cpu.Result, *system.System) {
	p, err := workload.ByName(bench)
	if err != nil {
		panic(err)
	}
	cfg.Seed = runSeed(opts.Seed, p)
	cfg.Metrics = opts.Metrics
	sys := system.New(cfg)
	res := cpu.Run(p, opts.Requests, sys, opts.CPU, opts.Seed+7)
	return res, sys
}

// elapsedOf returns the simulated duration of a run (for energy and wear
// rates).
func elapsedOf(r cpu.Result) sim.Time { return r.ExecTime }
