// Command obfsim regenerates the paper's tables and figures from the
// simulator. Run with -exp all (default) or one of: table1, table2,
// table3, figure4, figure5, energy, table4, tampering, timing,
// sensitivity, faults, backends, leakage. The backends matrix compares
// every registered protection backend (ObfusMem, Path ORAM, Palermo,
// baselines) head to head; the leakage matrix quantifies what a passive
// bus observer extracts from each (mutual information, address-recovery
// accuracy, workload-identification advantage), with -leakage-out writing
// the machine-readable report JSON. Neither is part of -exp all.
//
// Example:
//
//	obfsim -exp table3 -requests 20000
//
// With -metrics the observability layer records per-component counters and
// latency histograms across every simulated machine (bus channels, memory
// controller, PCM devices, ObfusMem controller), and -metrics-out writes
// the aggregated JSON snapshot ("-" for stdout).
//
// With -trace-out (and friends: -trace-limit, -trace-bench, -trace-mode,
// -trace-channels, -attrib-out, -sample-every, -sample-out) obfsim
// additionally performs one dedicated traced run with the request-lifecycle
// tracing layer on, emitting a Chrome trace-event JSON (loadable in
// Perfetto), a per-request latency-attribution table, and optionally a
// metrics time-series CSV. Use -exp none to run only the traced run:
//
//	obfsim -exp none -trace-out trace.json -sample-every 5
//
// With -cpuprofile/-memprofile the run writes pprof profiles of the whole
// invocation (see `make profile` and the "Profiling and benchmarking"
// section of EXPERIMENTS.md), and -workers sizes the benchmark worker pool
// (0 = one per CPU).
//
// With -campaign manifest.json the program instead runs (or resumes) a
// journaled campaign: the manifest's scheme x workload x fault-rate x seed
// grid, executed cell by cell into an append-only crash-safe journal under
// -campaign-out, with a read-only status endpoint on -campaign-addr. A
// killed or interrupted campaign resumes from the journal and merges to
// bit-identical results (see the "Running campaigns" section of
// EXPERIMENTS.md). SIGINT drains in-flight work and exits cleanly — for
// campaigns and long -exp runs alike.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"strings"

	"obfusmem/internal/cpu"
	"obfusmem/internal/exp"
	"obfusmem/internal/leakage"
	"obfusmem/internal/metrics"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
	"obfusmem/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "obfsim: %v\n", err)
		os.Exit(2)
	}
}

// run is the whole program behind flag parsing; factored out of main so
// tests can drive the binary end to end in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("obfsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which      = fs.String("exp", "all", "experiment: all|none|table1|table2|table3|figure4|figure5|energy|table4|tampering|timing|sensitivity|faults|backends|leakage")
		requests   = fs.Int("requests", 8000, "memory requests per benchmark per configuration")
		seed       = fs.Uint64("seed", 42, "global experiment seed")
		serial     = fs.Bool("serial", false, "disable parallel benchmark execution")
		workers    = fs.Int("workers", 0, "benchmark worker-pool size (0 = one per CPU); ignored with -serial")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (post-GC) at exit to this file")
		exposure   = fs.Float64("exposure", 0.55, "fraction of read latency exposed to execution time")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		useMetrics = fs.Bool("metrics", false, "record per-component observability metrics (small overhead)")
		metricsOut = fs.String("metrics-out", "metrics.json", "file for the metrics JSON snapshot (\"-\" for stdout); implies -metrics")
		leakageOut = fs.String("leakage-out", "", "machine-readable leakage report JSON (\"-\" for stdout); implies the -exp leakage sweep")

		campaignPath = fs.String("campaign", "", "campaign manifest JSON: run (or resume) the journaled grid it defines and exit (see EXPERIMENTS.md)")
		campaignOut  = fs.String("campaign-out", "campaign-out", "campaign directory holding the journal and merged results")
		campaignAddr = fs.String("campaign-addr", "", "serve the read-only campaign status endpoint on this address (e.g. 127.0.0.1:8080)")

		traceOut    = fs.String("trace-out", "", "Chrome trace-event JSON for a dedicated traced run (\"-\" for stdout); enables tracing")
		traceLimit  = fs.Int("trace-limit", trace.DefaultLimit, "trace ring-buffer capacity in spans (oldest evicted beyond it)")
		attribOut   = fs.String("attrib-out", "", "per-request latency-attribution report JSON (\"-\" for stdout); enables tracing")
		sampleEvery = fs.Float64("sample-every", 0, "metrics time-series sampling interval in sim microseconds (0 disables)")
		sampleOut   = fs.String("sample-out", "samples.csv", "file for the metrics time-series CSV (\"-\" for stdout)")
		traceBench  = fs.String("trace-bench", "milc", "benchmark profile for the traced run")
		traceMode   = fs.String("trace-mode", "obfusmem-auth", "machine for the traced run: "+strings.Join(system.BackendNames(), "|"))
		traceChans  = fs.Int("trace-channels", 2, "channel count for the traced run")
		traceFaults = fs.Float64("trace-faults", 0, "per-packet transient-fault rate for the traced run (0 disables; enables recovery on ObfusMem modes)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	metricsOutSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "metrics-out" {
			metricsOutSet = true
		}
	})

	// Fail fast on unwritable output destinations: a multi-minute experiment
	// run must not be discarded at the final write.
	preflight := [][2]string{
		{"trace-out", *traceOut},
		{"attrib-out", *attribOut},
		{"leakage-out", *leakageOut},
	}
	if *useMetrics || metricsOutSet {
		preflight = append(preflight, [2]string{"metrics-out", *metricsOut})
	}
	if *sampleEvery > 0 {
		preflight = append(preflight, [2]string{"sample-out", *sampleOut})
	}
	for _, p := range preflight {
		if err := checkWritable(p[0], p[1]); err != nil {
			return err
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stderr, "[cpu profile written to %s]\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "obfsim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "obfsim: memprofile: %v\n", err)
				return
			}
			fmt.Fprintf(stderr, "[heap profile written to %s]\n", *memProfile)
		}()
	}
	opts := exp.DefaultOptions()
	opts.Requests = *requests
	opts.Seed = *seed
	opts.Parallel = !*serial
	opts.Workers = *workers
	opts.CPU = cpu.Config{Exposure: *exposure, WriteBuffer: 16}

	var reg *metrics.Registry
	if *useMetrics || metricsOutSet {
		reg = metrics.NewRegistry()
		opts.Metrics = reg
	}

	// The first SIGINT cancels ctx: campaigns drain and commit in-flight
	// cells; experiment suites stop between benchmarks and flush whatever
	// partial outputs exist. A second SIGINT kills the process.
	ctx, cancel := interruptContext(stderr)
	defer cancel()
	opts.Interrupted = func() bool { return ctx.Err() != nil }

	if *campaignPath != "" {
		cw := *workers
		if *serial {
			cw = 1
		}
		cerr := runCampaignCmd(ctx, campaignOptions{
			Manifest: *campaignPath,
			Dir:      *campaignOut,
			Addr:     *campaignAddr,
			Workers:  cw,
			Metrics:  reg,
		}, stdout, stderr)
		if reg != nil {
			if serr := writeSnapshot(reg, *metricsOut, stdout); serr != nil && cerr == nil {
				cerr = serr
			} else if *metricsOut != "-" {
				fmt.Fprintf(stderr, "[metrics snapshot written to %s]\n", *metricsOut)
			}
		}
		return cerr
	}

	// The leakage sweep is computed at most once per invocation: the -exp
	// leakage table and the -leakage-out JSON render the same report.
	var leakReport *leakage.Report
	leakageReport := func() *leakage.Report {
		if leakReport == nil {
			leakReport = exp.LeakageReport(opts)
		}
		return leakReport
	}

	runners := map[string]func() *stats.Table{
		"table1":      func() *stats.Table { return exp.Table1(opts) },
		"table2":      exp.Table2,
		"table3":      func() *stats.Table { return exp.Table3(opts) },
		"figure4":     func() *stats.Table { return exp.Figure4(opts) },
		"figure5":     func() *stats.Table { return exp.Figure5(opts) },
		"energy":      func() *stats.Table { return exp.Energy(opts) },
		"table4":      func() *stats.Table { return exp.Table4(opts) },
		"tampering":   func() *stats.Table { return exp.Tampering(opts) },
		"timing":      func() *stats.Table { return exp.TimingOblivious(opts) },
		"sensitivity": func() *stats.Table { return exp.Sensitivity(opts) },
		"faults":      func() *stats.Table { return exp.Faults(opts) },
		"backends":    func() *stats.Table { return exp.Backends(opts) },
		"leakage":     func() *stats.Table { return leakageReport().Table() },
	}
	// "backends" and "leakage" are deliberately not part of
	// -exp all: the archived results_full.txt predates them and must stay
	// reproducible byte for byte.
	order := []string{"table1", "table2", "table3", "figure4", "figure5", "energy", "table4", "tampering", "timing", "sensitivity", "faults"}

	names := order
	switch *which {
	case "all":
	case "none":
		names = nil // tracing-only invocation
	default:
		if _, ok := runners[*which]; !ok {
			fs.Usage()
			return fmt.Errorf("unknown experiment %q", *which)
		}
		names = []string{*which}
	}
	for _, n := range names {
		if ctx.Err() != nil {
			fmt.Fprintf(stderr, "[interrupted: skipping %s and later experiments]\n", n)
			break
		}
		start := time.Now()
		t := runners[n]()
		if ctx.Err() != nil {
			// The pool stopped dispatching mid-suite; the table would mix
			// real and never-run rows, so discard it rather than mislead.
			fmt.Fprintf(stderr, "[interrupted: %s partial table discarded]\n", n)
			break
		}
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n", n, time.Since(start).Round(time.Millisecond))
	}

	if reg != nil {
		if err := writeSnapshot(reg, *metricsOut, stdout); err != nil {
			return err
		}
		if *metricsOut != "-" {
			fmt.Fprintf(stderr, "[metrics snapshot written to %s]\n", *metricsOut)
		}
	}

	if *leakageOut != "" && ctx.Err() != nil && leakReport == nil {
		// Interrupted before the leakage sweep ran: don't start a fresh
		// multi-scheme sweep now — flush only what already exists.
		fmt.Fprintln(stderr, "[interrupted: leakage report skipped]")
	} else if *leakageOut != "" {
		err := writeTo(*leakageOut, stdout, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(leakageReport())
		})
		if err != nil {
			return fmt.Errorf("leakage report: %w", err)
		}
		if *leakageOut != "-" {
			fmt.Fprintf(stderr, "[leakage report written to %s]\n", *leakageOut)
		}
	}

	topts := traceOptions{
		Bench:         *traceBench,
		Mode:          *traceMode,
		Channels:      *traceChans,
		Requests:      *requests,
		Seed:          *seed,
		Exposure:      *exposure,
		FaultRate:     *traceFaults,
		TraceOut:      *traceOut,
		TraceLimit:    *traceLimit,
		AttribOut:     *attribOut,
		SampleEveryUS: *sampleEvery,
		SampleOut:     *sampleOut,
	}
	if topts.enabled() {
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "[interrupted: traced run skipped]")
			return nil
		}
		if err := traceRun(topts, stdout, stderr); err != nil {
			return err
		}
	}
	return nil
}

// checkWritable verifies that the output destination named by -<flagName>
// can be opened for writing, before any simulation work starts. "-" (stdout)
// and empty paths need no check. A file created purely by the probe is
// removed again so a failed or interrupted run leaves no empty artifact.
func checkWritable(flagName, path string) error {
	if path == "" || path == "-" {
		return nil
	}
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return fmt.Errorf("-%s: %w", flagName, err)
	}
	f.Close()
	if statErr != nil && os.IsNotExist(statErr) {
		os.Remove(path)
	}
	return nil
}

// writeSnapshot exports the registry as indented JSON to the named file, or
// to stdout when path is "-".
func writeSnapshot(reg *metrics.Registry, path string, stdout io.Writer) error {
	if path == "-" {
		return reg.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics snapshot: %w", err)
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics snapshot: %w", err)
	}
	return f.Close()
}
