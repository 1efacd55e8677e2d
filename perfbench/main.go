// Command perfbench is the repository benchmark: host time of the
// closed-loop simulator on three workloads, end to end and layer by layer.
// See README.md for the workloads, the metrics and what each one moves.
//
//	go run . -workload obfus-channels -seed 42 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics (sim_req_per_s, setup_s,
// peak_rss_mb, failed_frac); with -trace 1 it prints the per-layer metrics
// of a separate run that times calls into each layer from outside. Either
// way it checks the simulated outputs, and its last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// goldenSeed is the seed the golden outputs were recorded at; other seeds
// are checked against the invariants and against themselves only.
const goldenSeed = 42

// figure5Requests is the size results_full.txt was generated at (obfsim
// -exp all -requests 5000): obfus-channels run at this size and the golden
// seed must print its Figure 5 section byte for byte.
const figure5Requests = 5000

//go:embed golden
var goldens embed.FS

// maxProcs caps GOMAXPROCS. Cells run serially, so one P leaves the
// collector to share the mutator's core: the figures then depend on one
// core's speed, not on how busy another tenant keeps a second one, and
// every host runs the benchmark the same way.
const maxProcs = 1

// setup_s is the median of setupRounds samples. Each sample constructs
// every machine of the workload as many times as it takes to reach
// setupMachines constructions, and is divided by that repeat count: one
// set of machines takes only milliseconds, too short to time steadily.
// The heap is collected (untimed) every setupBatch constructions, so the
// discarded machines never raise the process's peak memory.
const (
	setupRounds   = 9
	setupMachines = 3000
	setupBatch    = 8
)

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	requests  int    // 0: the workload's own
	passes    int    // 0: as many as fit in seconds
	goldenOut string // write the golden digests of the first pass here
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: obfus-channels, schemes-plain or observed")
	flag.Uint64Var(&o.seed, "seed", goldenSeed, "seed of the workload's inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.IntVar(&o.requests, "requests", 0, "requests per cell (0: the workload's own)")
	flag.IntVar(&o.passes, "passes", 0, "passes over the cells (0: as many as fit in -seconds)")
	flag.StringVar(&o.goldenOut, "golden-out", "", "write the first pass's golden digests to this file")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's final record.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options, stdout io.Writer) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	n := w.requests
	if o.requests > 0 {
		n = o.requests
	}
	cells := w.cells(o.seed)

	prov, err := json.Marshal(provenance(w, o, len(cells), n))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)

	var res result
	if o.trace == 0 {
		res, err = endToEnd(w, cells, n, o, stdout)
	} else {
		res, err = perLayer(w, cells, n, o, stdout)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("output check failed")
	}
	return nil
}

// endToEnd measures the end-to-end metrics: set-up, then passes over every
// cell until the time is up.
func endToEnd(w workloadDef, cells []cell, n int, o options, stdout io.Writer) (result, error) {
	reps := (setupMachines + len(cells) - 1) / len(cells)
	var setup []float64
	for r := 0; r < setupRounds; r++ {
		var ns int64
		for k := 0; k < reps; k++ {
			for i, c := range cells {
				if i%setupBatch == 0 {
					runtime.GC()
				}
				start := time.Now()
				buildCell(w, c, passOpts{})
				ns += time.Since(start).Nanoseconds()
			}
		}
		setup = append(setup, float64(ns)/1e9/float64(reps))
	}

	// Run phase. Each cell's host time is its fastest pass, and
	// sim_req_per_s divides the workload's requests by the sum of those
	// times. Host noise on a shared machine only ever slows a cell down, in
	// bursts shorter than a pass; the fastest of several passes is the
	// steadiest estimate of what the cell itself costs.
	ck := newChecker(w, cells, n, o)
	cellNS := make([][]float64, len(cells))
	var classNS []float64
	attempted, failed, passes := 0, 0, 0
	start := time.Now()
	for {
		po := runPass(w, cells, n, passOpts{})
		passes++
		attempted += len(cells)
		failed += po.failed
		for i, co := range po.cells {
			cellNS[i] = append(cellNS[i], float64(co.runNS))
		}
		classNS = append(classNS, float64(po.classNS))
		ck.pass(po)
		if o.passes > 0 && passes >= o.passes {
			break
		}
		if o.passes == 0 && time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
	}
	if err := ck.finish(); err != nil {
		return result{}, err
	}
	runNS := fastest(classNS)
	for _, ns := range cellNS {
		runNS += fastest(ns)
	}
	m := map[string]metric{
		"sim_req_per_s": {float64(len(cells)*n) / (runNS / 1e9), "req/s"},
		"setup_s":       {median(setup), "s"},
		"peak_rss_mb":   {peakRSSMiB(), "MiB"},
	}
	fmt.Fprintf(stdout, "workload %s: %d cells x %d requests, %d passes; setup: %d samples of %d constructions\n",
		w.name, len(cells), n, passes, setupRounds, reps*len(cells))
	for _, k := range []string{"sim_req_per_s", "setup_s", "peak_rss_mb"} {
		fmt.Fprintf(stdout, "%-14s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(stdout, "%-14s %14.6g ratio (%d of %d cells failed)\n",
		"failed_frac", float64(failed)/float64(attempted), failed, attempted)
	ck.report(stdout)
	return result{Correct: ck.ok(), Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// perLayer is the traced run. Until the time is up it repeats rounds of
// passes over the same cells: an untimed pass, a pass with the benchmark's
// timers and counters around every layer, and on observed the recorder-off
// and registry-off passes. Then it runs the component microbenchmarks.
func perLayer(w workloadDef, cells []cell, n int, o options, stdout io.Writer) (result, error) {
	ck := newChecker(w, cells, n, o)
	lp := layerPasses{la: newLayerAcc()}
	attempted, failed := 0, 0
	pass := func(sum *passSum, po passOpts) {
		out := runPass(w, cells, n, po)
		ck.pass(out)
		sum.runNS += out.runNS
		sum.requests += out.requests
		attempted += len(cells)
		failed += out.failed
	}
	start := time.Now()
	for rounds := 1; ; rounds++ {
		pass(&lp.plain, passOpts{})
		pass(&lp.timed, passOpts{layers: lp.la})
		if w.observed {
			pass(&lp.traceOff, passOpts{traceOff: true})
			pass(&lp.noMetrics, passOpts{traceOff: true, metricsOff: true})
		}
		if o.passes > 0 && rounds >= o.passes {
			break
		}
		if o.passes == 0 && time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
	}
	if err := ck.finish(); err != nil {
		return result{}, err
	}
	lp.micro = microbenchmarks(microInputs(cells, 4000), o.seed)

	vals, na := layerValues(w, lp)
	m := make(map[string]metric)
	fmt.Fprintf(stdout, "workload %s (traced): %d cells x %d requests\n", w.name, len(cells), n)
	for _, lm := range layerMetrics() {
		m[lm.name] = metric{vals[lm.name], lm.unit}
		if why, ok := na[lm.name]; ok {
			fmt.Fprintf(stdout, "%-28s %14s %-5s n/a: %s\n", lm.name, "-", lm.unit, why)
			m[lm.name] = metric{0, lm.unit}
			continue
		}
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", lm.name, vals[lm.name], lm.unit)
	}
	claims(w, vals, stdout)
	ck.report(stdout)
	return result{Correct: ck.ok(), Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// claims prints whether the workload stresses what README.md says it does.
func claims(w workloadDef, v map[string]float64, stdout io.Writer) {
	say := func(what string, got, bound float64, ok bool) {
		verdict := "holds"
		if !ok {
			verdict = "DOES NOT HOLD"
		}
		fmt.Fprintf(stdout, "claim: %s: %.1f%% (bound %.0f%%) %s\n", what, got, bound, verdict)
	}
	crypto := v["model.crypto_share_pct"]
	switch w.name {
	case "obfus-channels":
		say("md5sim+aes share of run-phase host time >= 40%", crypto, 40, crypto >= 40)
	case "schemes-plain":
		say("md5sim+aes share of run-phase host time < 5%", crypto, 5, crypto < 5)
	case "observed":
		tr := v["trace.overhead_pct"]
		say("trace.overhead_pct >= 100%", tr, 100, tr >= 100)
	}
}

// checker holds the output checks of a run: per-cell invariants (done by
// runCell), identical results on every pass, at the golden seed and the
// workload's size the recorded goldens, and for obfus-channels at the
// golden seed and figure5Requests the Figure 5 section of results_full.txt
// byte for byte.
type checker struct {
	w       workloadDef
	cells   []cell
	golden  bool
	figure5 bool
	out     string // golden-out path
	first   []string
	errs    []string
	passes  int
}

func newChecker(w workloadDef, cells []cell, n int, o options) *checker {
	return &checker{w: w, cells: cells, out: o.goldenOut,
		golden:  o.seed == goldenSeed && n == w.requests,
		figure5: o.seed == goldenSeed && n == figure5Requests && w.name == "obfus-channels"}
}

// lines is a pass's golden record: one digest per cell, plus the
// classifier accuracy per scheme on the observed workload.
func (ck *checker) lines(po passOut) []string {
	var ls []string
	for i, c := range ck.cells {
		ls = append(ls, c.name+" "+po.cells[i].digest)
	}
	for i, sc := range schemeOrder() {
		if i < len(po.classAcc) {
			ls = append(ls, fmt.Sprintf("classifier/%s %v", sc, po.classAcc[i]))
		}
	}
	return ls
}

func (ck *checker) fail(format string, args ...any) {
	if len(ck.errs) < 20 {
		ck.errs = append(ck.errs, fmt.Sprintf(format, args...))
	}
}

func (ck *checker) pass(po passOut) {
	ck.passes++
	for _, co := range po.cells {
		if co.err != nil {
			ck.fail("cell failed: %v", co.err)
		}
	}
	ls := ck.lines(po)
	if ck.first == nil {
		ck.first = ls
		if ck.golden {
			ck.compareGolden(ls)
		}
		if ck.figure5 {
			want, err := goldens.ReadFile("golden/figure5.txt")
			if got := figure5(ck.cells, po.cells); err != nil || got != string(want) {
				ck.fail("Figure 5 differs from results_full.txt:\n%s", got)
			}
		}
		return
	}
	for i := range ls {
		if ls[i] != ck.first[i] {
			ck.fail("pass %d differs from pass 1: %q vs %q", ck.passes, ls[i], ck.first[i])
			return
		}
	}
}

func (ck *checker) compareGolden(ls []string) {
	data, err := goldens.ReadFile("golden/" + ck.w.name + ".txt")
	if err != nil {
		ck.fail("no golden for %s: %v", ck.w.name, err)
		return
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(ls) {
		ck.fail("golden has %d lines, run has %d", len(want), len(ls))
		return
	}
	for i := range ls {
		if ls[i] != want[i] {
			ck.fail("golden mismatch: got %q, want %q", ls[i], want[i])
		}
	}
}

// finish writes the golden record when asked.
func (ck *checker) finish() error {
	if ck.out == "" {
		return nil
	}
	f, err := os.Create(ck.out)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, l := range ck.first {
		fmt.Fprintln(bw, l)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (ck *checker) ok() bool { return len(ck.errs) == 0 }

func (ck *checker) report(stdout io.Writer) {
	what := "invariants and pass-to-pass identity"
	if ck.golden {
		what += ", goldens"
	}
	if ck.figure5 {
		what += ", Figure 5 byte for byte"
	}
	if ck.ok() {
		fmt.Fprintf(stdout, "check: ok (%s over %d passes)\n", what, ck.passes)
		return
	}
	for _, e := range ck.errs {
		fmt.Fprintln(stdout, "check: FAIL:", e)
	}
}

// provenance describes the run: what ran, with which inputs, where.
func provenance(w workloadDef, o options, cells, n int) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"workload":     w.name,
		"seed":         o.seed,
		"trace":        o.trace,
		"cells":        cells,
		"requests":     n,
		"cpu_model":    cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"vcs_revision": rev,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fastest(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
