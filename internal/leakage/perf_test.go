package leakage

import (
	"testing"

	"obfusmem/internal/attack"
	"obfusmem/internal/cpu"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// recordObserved runs n mcf requests on a 2-channel ObfusMem machine with a
// passive observer on the bus and returns the observer and the issued
// request schedule: the trace Evaluate scores in the leakage sweep.
func recordObserved(tb testing.TB, n int) (*attack.Observer, []Issued) {
	tb.Helper()
	p, err := workload.ByName("mcf")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := system.DefaultConfig(system.ObfusMem)
	cfg.Channels = 2
	sys := system.New(cfg)
	obs := attack.NewObserver(cfg.Channels, 1<<21)
	sys.Bus().AttachObserver(obs)
	probe := NewProbe(sys)
	cpu.Run(p, n, probe, cpu.DefaultConfig(), 3)
	return obs, probe.Issued()
}

// TestEvaluateAllocs guards scoring's allocation profile: Evaluate makes the
// same fixed number of allocations for a 500- and a 5,000-request trace, so
// no per-element map or regrowing append can creep back into a stage, and
// reading the observer's wire view allocates nothing.
func TestEvaluateAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		obs, issued := recordObserved(t, n)
		wire := obs.WireTrace()
		if len(wire) < n {
			t.Fatalf("%d requests left only %d wire packets", n, len(wire))
		}
		return testing.AllocsPerRun(5, func() { Evaluate(wire, issued, nil) })
	}
	if small, large := allocs(500), allocs(5000); small != large {
		t.Errorf("Evaluate allocates %v times on 500 requests but %v on 5000: a stage allocates per element", small, large)
	}

	obs, _ := recordObserved(t, 200)
	if got := testing.AllocsPerRun(100, func() { _ = obs.WireTrace() }); got != 0 {
		t.Errorf("Observer.WireTrace allocates %v times, want 0 (it is a view, not a copy)", got)
	}
}

// evalSink keeps BenchmarkEvaluate's result live.
var evalSink Evaluation

// BenchmarkEvaluate scores a recorded 2-channel ObfusMem trace of 2,000
// requests: the per-cell leakage cost of the -exp leakage sweep.
func BenchmarkEvaluate(b *testing.B) {
	obs, issued := recordObserved(b, 2000)
	wire := obs.WireTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalSink = Evaluate(wire, issued, nil)
	}
}
