package cpu

import (
	"slices"
	"testing"

	"obfusmem/internal/cache"
	"obfusmem/internal/sim"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// fixedLatency is a trivial MemorySystem for unit-testing the core model.
type fixedLatency struct {
	read          sim.Time
	write         sim.Time
	reads, writes int
}

func (f *fixedLatency) Read(at sim.Time, addr uint64) sim.Time {
	f.reads++
	return at + f.read
}
func (f *fixedLatency) Write(at sim.Time, addr uint64) sim.Time {
	f.writes++
	return at + f.write
}
func (f *fixedLatency) Drain(at sim.Time) {}

func TestRunBasics(t *testing.T) {
	p, _ := workload.ByName("milc")
	sys := &fixedLatency{read: 80 * sim.Nanosecond, write: 80 * sim.Nanosecond}
	res := Run(p, 5000, sys, DefaultConfig(), 1)
	if res.Requests != 5000 || res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("counts wrong: %+v", res)
	}
	if res.Reads != uint64(sys.reads) || res.Writes != uint64(sys.writes) {
		t.Fatal("system call counts disagree with result")
	}
	if res.ExecTime <= 0 || res.IPC <= 0 || res.MPKI <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
	// Mean read latency is exactly the fixed latency.
	if res.MeanReadNS < 79.9 || res.MeanReadNS > 80.1 {
		t.Fatalf("MeanReadNS = %v, want 80", res.MeanReadNS)
	}
}

func TestExposureScalesStalls(t *testing.T) {
	p, _ := workload.ByName("bwaves")
	run := func(expo float64) Result {
		sys := &fixedLatency{read: 100 * sim.Nanosecond}
		return Run(p, 3000, sys, Config{Exposure: expo, WriteBuffer: 16}, 2)
	}
	low := run(0.2)
	high := run(0.9)
	if high.ExecTime <= low.ExecTime {
		t.Fatalf("higher exposure did not slow execution: %v vs %v", high.ExecTime, low.ExecTime)
	}
	if high.StallTime <= low.StallTime {
		t.Fatal("stall accounting inconsistent")
	}
}

func TestSlowMemorySlowsExecution(t *testing.T) {
	p, _ := workload.ByName("mcf")
	fast := Run(p, 3000, &fixedLatency{read: 80 * sim.Nanosecond}, DefaultConfig(), 3)
	slow := Run(p, 3000, &fixedLatency{read: 2500 * sim.Nanosecond}, DefaultConfig(), 3)
	if Overhead(fast, slow) < 300 {
		t.Fatalf("2500ns memory overhead only %.1f%%", Overhead(fast, slow))
	}
	if Speedup(fast, slow) < 3 {
		t.Fatalf("speedup = %v", Speedup(fast, slow))
	}
}

func TestWriteBufferBackPressure(t *testing.T) {
	// Writes far slower than the request rate must eventually stall the
	// core via the bounded write buffer.
	p, _ := workload.ByName("lbm") // write-heavy
	slowW := Run(p, 3000, &fixedLatency{read: 50 * sim.Nanosecond, write: 10 * sim.Microsecond},
		Config{Exposure: 0.5, WriteBuffer: 4}, 4)
	fastW := Run(p, 3000, &fixedLatency{read: 50 * sim.Nanosecond, write: 50 * sim.Nanosecond},
		Config{Exposure: 0.5, WriteBuffer: 4}, 4)
	if slowW.ExecTime <= fastW.ExecTime {
		t.Fatal("slow writes never back-pressured the core")
	}
}

func TestRunHierarchyBasics(t *testing.T) {
	w := DefaultHierarchyWorkload()
	h := cache.NewHierarchy(w.Cores)
	sys := &fixedLatency{read: 80 * sim.Nanosecond, write: 80 * sim.Nanosecond}
	res := RunHierarchy(w, 20000, h, sys, DefaultConfig(), 5)
	if res.Instructions != uint64(20000*w.Cores) {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	if res.IPC <= 0 || res.ExecTime <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// Hot regions are cache resident: most accesses hit L1.
	if res.HitLevels[1] < res.HitLevels[4] {
		t.Fatalf("L1 hits (%d) below memory accesses (%d): hot set not cached",
			res.HitLevels[1], res.HitLevels[4])
	}
	// The shared streaming region must produce real LLC misses.
	if res.LLCMisses == 0 || res.MPKI <= 0 {
		t.Fatalf("no organic LLC misses: %+v", res)
	}
	if sys.reads == 0 {
		t.Fatal("memory system never read")
	}
	// Shared writes between cores produce coherence activity.
	if res.Snoops == 0 {
		t.Fatal("no snoop hits despite shared read-write region")
	}
}

func TestRunHierarchyWritebacksReachMemory(t *testing.T) {
	w := DefaultHierarchyWorkload()
	w.StoreFrac = 0.6
	w.HotFrac = 0.3 // stream hard so dirty lines wash out of the LLC
	h := cache.NewHierarchy(w.Cores)
	sys := &fixedLatency{read: 80 * sim.Nanosecond, write: 80 * sim.Nanosecond}
	res := RunHierarchy(w, 200000, h, sys, DefaultConfig(), 6)
	if res.Writebacks == 0 || sys.writes == 0 {
		t.Fatalf("no writebacks reached memory: %+v", res)
	}
}

func TestRunDeterminism(t *testing.T) {
	p, _ := workload.ByName("zeus")
	a := Run(p, 2000, &fixedLatency{read: 90 * sim.Nanosecond}, DefaultConfig(), 7)
	b := Run(p, 2000, &fixedLatency{read: 90 * sim.Nanosecond}, DefaultConfig(), 7)
	if a.ExecTime != b.ExecTime || a.Reads != b.Reads {
		t.Fatal("Run not deterministic")
	}
}

// TestRunZeroAllocsPerRequest pins the core model's allocation contract:
// one run allocates its write buffer and nothing per request. The memory
// system and the pre-built stream allocate nothing themselves; slow
// writes keep the buffer full so the back-pressure path runs too.
func TestRunZeroAllocsPerRequest(t *testing.T) {
	p, _ := workload.ByName("lbm")
	stream := workload.NewStream(p, 8)
	sys := &fixedLatency{read: 50 * sim.Nanosecond, write: 5 * sim.Microsecond}
	cfg := Config{Exposure: 0.5, WriteBuffer: 4}
	var res Result
	allocs := testing.AllocsPerRun(20, func() { res = drive(p.Name, stream, 2000, sys, cfg) })
	if allocs != 1 {
		t.Errorf("a 2000-request run allocates %.2f times, want 1 (the write buffer)", allocs)
	}
	if res.Writes == 0 || res.StallTime == 0 {
		t.Fatalf("run never stalled on the write buffer: %+v", res)
	}
}

// TestWriteBufferHelpers checks the in-place buffer helpers against a
// sorted model of the same ascending multiset.
func TestWriteBufferHelpers(t *testing.T) {
	r := xrand.New(3)
	buf := make([]sim.Time, 0, 8)
	var model []sim.Time
	for i := 0; i < 5000; i++ {
		now := sim.Time(r.Intn(64))
		buf = pruneBefore(buf, now)
		kept := model[:0:0]
		for _, v := range model {
			if v > now {
				kept = append(kept, v)
			}
		}
		model = kept
		if len(buf) == cap(buf) {
			buf, model = dropFront(buf, 1), model[1:]
		}
		v := now + sim.Time(r.Intn(64))
		buf = insertSorted(buf, v)
		model = append(model, v)
		slices.Sort(model)
		if cap(buf) != 8 || !slices.Equal(buf, model) {
			t.Fatalf("step %d: buffer %v (cap %d), model %v", i, buf, cap(buf), model)
		}
	}
}
