package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"obfusmem/internal/exp"
	"obfusmem/internal/stats"
)

// tiny is the request count of the smoke tests: every code path, little time.
const tiny = 200

// lastRecord runs the benchmark and decodes its final JSON line.
func lastRecord(t *testing.T, o options) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("run %+v: %v\n%s", o, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the record: %v\n%s", err, out.String())
	}
	return r, out.String()
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, out := lastRecord(t, options{workload: w.name, seed: 7, seconds: 1, requests: tiny, passes: 2})
			if !r.Correct || r.Failed != 0 || r.Attempted != 2*len(w.cells(7)) {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, out)
			}
			if !printsZeroFailedFrac(out) {
				t.Errorf("failed_frac is not printed as 0:\n%s", out)
			}
			for _, k := range []string{"sim_req_per_s", "setup_s", "peak_rss_mb"} {
				if m, ok := r.Metrics[k]; !ok || m.Value <= 0 {
					t.Errorf("metric %s = %+v", k, m)
				}
			}
		})
	}
}

func printsZeroFailedFrac(out string) bool {
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) >= 3 && f[0] == "failed_frac" {
			return f[1] == "0" && f[2] == "ratio"
		}
	}
	return false
}

// TestTracedRunMatchesUntraced holds that the benchmark's timers and
// counters do not perturb the model: the traced pass's simulated results
// are identical to the untraced pass's, and the traced run reports every
// per-layer metric.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cells := w.cells(11)
			plain := runPass(w, cells, tiny, passOpts{})
			timed := runPass(w, cells, tiny, passOpts{layers: newLayerAcc()})
			for i := range cells {
				if plain.cells[i].err != nil || timed.cells[i].err != nil {
					t.Fatalf("%s: %v / %v", cells[i].name, plain.cells[i].err, timed.cells[i].err)
				}
				if plain.cells[i].digest != timed.cells[i].digest {
					t.Errorf("%s: traced result differs from untraced", cells[i].name)
				}
			}
			if w.observed {
				for i := range plain.classAcc {
					if plain.classAcc[i] != timed.classAcc[i] {
						t.Errorf("classifier accuracy %d: %v traced, %v untraced", i, timed.classAcc[i], plain.classAcc[i])
					}
				}
			}

			r, out := lastRecord(t, options{workload: w.name, seed: 11, seconds: 1, trace: 1, requests: tiny})
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d\n%s", r.Correct, r.Failed, out)
			}
			for _, lm := range layerMetrics() {
				if _, ok := r.Metrics[lm.name]; !ok {
					t.Errorf("per-layer metric %s missing", lm.name)
				}
			}
		})
	}
}

// TestCellsMatchExperiments holds the workloads to the experiments they
// claim to be: obfus-channels renders -exp figure5's table and observed
// reproduces -exp leakage's per-scheme scores.
func TestCellsMatchExperiments(t *testing.T) {
	opts := exp.DefaultOptions()
	opts.Requests = tiny

	w, _ := workloadByName("obfus-channels")
	cells := w.cells(opts.Seed)
	got := figure5(cells, runPass(w, cells, tiny, passOpts{}).cells)
	if want := exp.Figure5(opts).String() + "\n"; got != want {
		t.Errorf("obfus-channels Figure 5:\n%s\nexp.Figure5:\n%s", got, want)
	}

	w, _ = workloadByName("observed")
	cells = w.cells(opts.Seed)
	po := runPass(w, cells, tiny, passOpts{})
	rep := exp.LeakageReport(opts)
	for si, sc := range schemeOrder() {
		row := rep.Schemes[si]
		var rec, mi []float64
		for i, c := range cells {
			if c.scheme == sc {
				rec = append(rec, po.cells[i].eval.Recovery.Accuracy)
				mi = append(mi, po.cells[i].eval.MI.BitsPerRequest)
			}
		}
		if row.Scheme != sc || row.ClassifierAccuracy != po.classAcc[si] ||
			row.RecoveryAccuracy != stats.Mean(rec) || row.MIBitsPerRequest != stats.Mean(mi) {
			t.Errorf("%s: benchmark (class %v, recov %v, MI %v) vs exp.LeakageReport %+v",
				sc, po.classAcc[si], stats.Mean(rec), stats.Mean(mi), row)
		}
	}
}

// TestFigure5GoldenIsResultsFull pins the Figure 5 golden to the archived
// reproduction.
func TestFigure5GoldenIsResultsFull(t *testing.T) {
	full, err := os.ReadFile("../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := string(full)
	i := strings.Index(s, "Figure 5:")
	j := strings.Index(s[i:], "\n\n")
	if i < 0 || j < 0 {
		t.Fatal("no Figure 5 section in results_full.txt")
	}
	golden, err := goldens.ReadFile("golden/figure5.txt")
	if err != nil {
		t.Fatal(err)
	}
	if section := s[i : i+j+2]; section != string(golden) {
		t.Errorf("golden/figure5.txt:\n%s\nresults_full.txt:\n%s", golden, section)
	}
}

// TestGoldenSeed runs every workload at its own size and the golden seed,
// where the output check compares every cell against the recorded goldens.
func TestGoldenSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	for _, w := range workloads {
		r, out := lastRecord(t, options{workload: w.name, seed: goldenSeed, seconds: 1, passes: 1})
		if !r.Correct || !strings.Contains(out, "goldens") {
			t.Errorf("%s: golden check did not pass:\n%s", w.name, out)
		}
	}
	r, out := lastRecord(t, options{workload: "obfus-channels", seed: goldenSeed, seconds: 1,
		requests: figure5Requests, passes: 1})
	if !r.Correct || !strings.Contains(out, "Figure 5 byte for byte") {
		t.Errorf("obfus-channels at %d requests: Figure 5 check did not pass:\n%s", figure5Requests, out)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to what the command prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, b.Workloads[i].Name, w.name)
		}
	}
	e2e := []named{{"sim_req_per_s", "req/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"}}
	if len(b.EndToEnd) != len(e2e) {
		t.Fatalf("end_to_end: %+v", b.EndToEnd)
	}
	for i := range e2e {
		if b.EndToEnd[i] != e2e[i] {
			t.Errorf("end_to_end %d: %+v, want %+v", i, b.EndToEnd[i], e2e[i])
		}
	}
	lms := layerMetrics()
	if len(b.PerLayer) != len(lms) {
		t.Fatalf("per_layer has %d metrics, perfbench %d", len(b.PerLayer), len(lms))
	}
	for i, lm := range lms {
		if b.PerLayer[i] != (named{lm.name, lm.unit}) {
			t.Errorf("per_layer %d: %+v, want %+v", i, b.PerLayer[i], lm)
		}
	}
}
