package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"obfusmem/internal/attack"
	"obfusmem/internal/cpu"
	"obfusmem/internal/leakage"
	"obfusmem/internal/metrics"
	"obfusmem/internal/sim"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
	"obfusmem/internal/trace"
	"obfusmem/internal/workload"
)

// observeLimit is the bus observer's retention cap, as in -exp leakage.
const observeLimit = 1 << 21

// passOpts selects what a pass switches on besides the workload itself.
type passOpts struct {
	// layers, when non-nil, turns on the benchmark's own timers and
	// counters around each layer's public calls (the traced run).
	layers *layerAcc
	// traceOff and metricsOff drop the observed workload's recorder or
	// registry, for the overhead comparisons of the traced run.
	traceOff, metricsOff bool
}

// machine is one cell's assembled system plus the observability objects
// the observed workload attaches to it.
type machine struct {
	sys   *system.System
	rec   *trace.Recorder
	obs   *attack.Observer
	probe *leakage.Probe
}

// buildCell assembles a cell's machine: everything that happens before the
// first request. setup_s times exactly this.
func buildCell(w workloadDef, c cell, po passOpts) machine {
	cfg := c.cfg
	var m machine
	if w.observed {
		if !po.metricsOff {
			cfg.Metrics = metrics.NewRegistry()
		}
		if !po.traceOff {
			m.rec = trace.New(0)
			cfg.Trace = m.rec
		}
	}
	m.sys = system.New(cfg)
	if w.observed {
		m.obs = attack.NewObserver(cfg.Channels, observeLimit)
	}
	return m
}

// cellOut is one cell's simulated outcome.
type cellOut struct {
	res    cpu.Result
	eval   leakage.Evaluation
	digest string
	err    error
	runNS  int64 // run-phase host time
}

// passOut is one pass over every cell of a workload.
type passOut struct {
	cells    []cellOut
	classAcc []float64 // observed: classifier accuracy per scheme, schemeOrder order
	runNS    int64     // run-phase host time, classNS included
	classNS  int64     // observed: host time of the per-scheme classifier
	requests uint64    // simulated requests completed
	failed   int
}

// runPass drives every cell of the workload once, serially.
func runPass(w workloadDef, cells []cell, n int, po passOpts) passOut {
	out := passOut{cells: make([]cellOut, len(cells))}
	for i, c := range cells {
		// Every cell starts from a collected heap, so one cell's garbage
		// never lands in the next cell's time and the peak heap does not
		// depend on where the collector's cycles happen to fall.
		runtime.GC()
		co := runCell(w, c, n, po)
		out.cells[i] = co
		out.runNS += co.runNS
		if co.err != nil {
			out.failed++
		} else {
			out.requests += co.res.Requests
		}
	}
	if w.observed {
		start := time.Now()
		out.classAcc = classify(cells, out.cells)
		ns := time.Since(start).Nanoseconds()
		out.runNS += ns
		out.classNS = ns
		if po.layers != nil {
			po.layers.classNS += ns
			po.layers.classN += int64(len(out.classAcc))
		}
	}
	return out
}

// classify runs the leave-one-seed-out workload classifier per scheme.
func classify(cells []cell, outs []cellOut) []float64 {
	schemes := schemeOrder()
	vectors := make(map[string][][][]float64, len(schemes))
	for _, sc := range schemes {
		v := make([][][]float64, len(leakBenches))
		for b := range v {
			v[b] = make([][]float64, leakSeeds)
		}
		vectors[sc] = v
	}
	for i, c := range cells {
		vectors[c.scheme][c.bench][c.seedIdx] = outs[i].eval.Features
	}
	acc := make([]float64, len(schemes))
	for i, sc := range schemes {
		acc[i] = leakage.ClassifierAccuracy(vectors[sc])
	}
	return acc
}

// runCell builds and drives one cell. Its run-phase host time excludes the
// machine's construction. A panic or a broken invariant fails the cell; the
// pass goes on.
func runCell(w workloadDef, c cell, n int, po passOpts) (out cellOut) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("%s: panic: %v", c.name, r)
		}
	}()
	la := po.layers
	t0 := time.Now()
	m := buildCell(w, c, po)
	if la != nil {
		la.newNS += time.Since(t0).Nanoseconds()
		la.newN++
	}

	var ms cpu.MemorySystem = m.sys
	if la != nil {
		ms = la.wrap(c, m.sys)
	}
	if m.obs != nil {
		if la != nil {
			m.sys.Bus().AttachObserver(la.timedObserver(m.obs))
		} else {
			m.sys.Bus().AttachObserver(m.obs)
		}
		m.probe = leakage.NewProbe(ms)
		ms = m.probe
	}
	ccfg := cpu.DefaultConfig()
	ccfg.Trace = m.rec

	var before runtime.MemStats
	if la != nil {
		la.sampleNS += timeSampling(c, n)
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	out.res = cpu.Run(c.prof, n, ms, ccfg, c.cpuSeed)
	cpuNS := time.Since(start).Nanoseconds()
	out.runNS = cpuNS
	if la != nil {
		la.afterRun(m, &before, cpuNS, out.res)
	}
	if m.obs != nil {
		t := time.Now()
		out.eval = leakage.Evaluate(m.obs.WireTrace(), m.probe.Issued(), m.rec)
		evalNS := time.Since(t).Nanoseconds()
		t = time.Now()
		att := m.rec.Attribution("")
		attNS := time.Since(t).Nanoseconds()
		out.runNS += evalNS + attNS
		if m.rec != nil && att.Requests != out.res.Requests {
			out.err = fmt.Errorf("%s: attribution covers %d requests, ran %d", c.name, att.Requests, out.res.Requests)
			return out
		}
		if la != nil {
			la.evalNS += evalNS
			la.evalN++
			la.attribNS += attNS
			la.attribN++
		}
	}
	if err := checkCell(m.sys, out.res, n); err != nil {
		out.err = fmt.Errorf("%s: %w", c.name, err)
		return out
	}
	out.digest = digest(out.res, out.eval)
	return out
}

// checkCell holds the invariants every cell must meet for any seed.
func checkCell(sys *system.System, res cpu.Result, n int) error {
	if err := sys.Err(); err != nil {
		return fmt.Errorf("machine error: %w", err)
	}
	if g := sys.Accounting().Gap(); g != 0 {
		return fmt.Errorf("request accounting gap %d (%+v)", g, sys.Accounting())
	}
	if res.Requests != uint64(n) || res.Reads+res.Writes != res.Requests {
		return fmt.Errorf("request count: %d reads + %d writes, %d requests, want %d",
			res.Reads, res.Writes, res.Requests, n)
	}
	return nil
}

// digest fingerprints a cell's simulated outcome. %v prints floats in the
// shortest form that round-trips, so equal digests mean equal results.
func digest(res cpu.Result, ev leakage.Evaluation) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v|%+v", res, ev)))
	return hex.EncodeToString(h[:8])
}

// timeSampling is the host time the cell's request stream takes to
// generate on its own: the same profile and seed cpu.Run uses.
func timeSampling(c cell, n int) int64 {
	st := workload.NewStream(c.prof, c.cpuSeed)
	var sink sim.Time
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += st.Next().Gap
	}
	ns := time.Since(start).Nanoseconds()
	if sink < 0 {
		panic("negative gap")
	}
	return ns
}

// figure5 renders the Figure 5 table from an obfus-channels pass exactly as
// obfsim -exp figure5 prints it.
func figure5(cells []cell, outs []cellOut) string {
	t := stats.NewTable("Figure 5: mean overhead (%) vs channels",
		"Channels", "UNOPT", "UNOPT+Auth", "OPT", "OPT+Auth")
	type key struct{ ch, variant int }
	byKey := make(map[key][]cpu.Result)
	var channels []int
	for i, c := range cells {
		k := key{c.channels, c.variant}
		if c.variant == 0 && len(byKey[k]) == 0 {
			channels = append(channels, c.channels)
		}
		byKey[k] = append(byKey[k], outs[i].res)
	}
	for _, ch := range channels {
		base := byKey[key{ch, 0}]
		row := []any{ch}
		for v := 1; v < len(figure5Variants); v++ {
			var ov []float64
			for i, r := range byKey[key{ch, v}] {
				ov = append(ov, cpu.Overhead(base[i], r))
			}
			row = append(row, stats.Mean(ov))
		}
		t.AddRowf(1, row...)
	}
	t.AddNote("paper at 8 channels: UNOPT up to 16.3%%/18.8%% (plain/auth), OPT up to 10.1%%/13.2%%")
	return t.String() + "\n"
}
