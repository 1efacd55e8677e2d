package sim

import (
	"math"
	"testing"
	"testing/quick"

	"obfusmem/internal/metrics"
)

func TestEngineMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	e := NewEngine()
	e.SetMetrics(reg)
	ev := e.Schedule(5, func() {})
	cancelled := e.Schedule(7, func() {})
	e.Schedule(10*Nanosecond, func() {})
	e.Cancel(cancelled)
	e.Run()
	e.Cancel(ev) // fired: must not count as cancelled
	snap := reg.Snapshot()
	if got := snap.Counters["sim.events_fired"]; got != 2 {
		t.Errorf("events_fired = %d, want 2", got)
	}
	if got := snap.Counters["sim.events_cancelled"]; got != 1 {
		t.Errorf("events_cancelled = %d, want 1", got)
	}
	if got := snap.Gauges["sim.now_ns"]; got != 10 {
		t.Errorf("now_ns = %v, want 10", got)
	}
	if snap.Gauges["sim.events_per_wallsec"] <= 0 {
		t.Error("events_per_wallsec not recorded")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{Nanosecond, "1.000ns"},
		{1500 * Nanosecond, "1.500us"},
		{2 * Millisecond, "2.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestNanos(t *testing.T) {
	if Nanos(1.5) != 1500 {
		t.Fatalf("Nanos(1.5) = %d, want 1500", Nanos(1.5))
	}
	if Nanos(0) != 0 {
		t.Fatalf("Nanos(0) = %d, want 0", Nanos(0))
	}
	if got := Time(2500 * Nanosecond).Float64Nanos(); got != 2500 {
		t.Fatalf("Float64Nanos = %v, want 2500", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	// Same timestamp: FIFO by scheduling order.
	e.Schedule(20, func() { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
	if e.Fired() != 4 {
		t.Errorf("Fired() = %d, want 4", e.Fired())
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(5, func() {
		got = append(got, e.Now())
		e.After(7, func() { got = append(got, e.Now()) })
	})
	e.Run()
	if len(got) != 2 || got[0] != 5 || got[1] != 12 {
		t.Fatalf("got %v, want [5 12]", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // idempotent
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
}

func TestCancelAfterFireIsNoOp(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	e.Cancel(ev)
	if ev.Cancelled() {
		t.Error("Cancelled() = true for an event that actually fired")
	}
	// Cancelling a fired event must not disturb later scheduling either.
	again := false
	e.Schedule(20, func() { again = true })
	e.Run()
	if !again {
		t.Error("engine broken after cancelling a fired event")
	}
}

func TestCancelInterleaved(t *testing.T) {
	e := NewEngine()
	var fired []int
	ev2 := e.Schedule(20, func() { fired = append(fired, 2) })
	e.Schedule(10, func() {
		fired = append(fired, 1)
		e.Cancel(ev2)
	})
	e.Schedule(30, func() { fired = append(fired, 3) })
	e.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [1 3]", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(10); i <= 100; i += 10 {
		e.Schedule(i, func() { count++ })
	}
	e.RunUntil(55)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 55 {
		t.Fatalf("Now() = %v, want 55", e.Now())
	}
	e.RunUntil(200)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 200 {
		t.Fatalf("Now() = %v, want 200", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(10, func() { count++; e.Stop() })
	e.Schedule(20, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt the loop)", count)
	}
	e.Run() // resume
	if count != 2 {
		t.Fatalf("count = %d, want 2 after resuming", count)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var stop func()
	stop = e.Ticker(10, func() {
		ticks++
		if ticks == 3 {
			stop()
		}
	})
	e.Run()
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
}

func TestResource(t *testing.T) {
	r := NewResource("bus")
	if got := r.Acquire(100, 50); got != 100 {
		t.Fatalf("first Acquire start = %d, want 100", got)
	}
	// Second request at an earlier time must queue behind the first.
	if got := r.Acquire(90, 25); got != 150 {
		t.Fatalf("second Acquire start = %d, want 150", got)
	}
	if r.FreeAt() != 175 {
		t.Fatalf("FreeAt = %d, want 175", r.FreeAt())
	}
	if !r.IdleAt(200) || r.IdleAt(160) {
		t.Error("IdleAt misreports occupancy")
	}
	if r.BusyTime() != 75 {
		t.Fatalf("BusyTime = %d, want 75", r.BusyTime())
	}
	if r.Uses() != 2 {
		t.Fatalf("Uses = %d, want 2", r.Uses())
	}
	u := r.Utilization(750)
	if u < 0.099 || u > 0.101 {
		t.Fatalf("Utilization = %v, want 0.1", u)
	}
	r.Reset()
	if r.BusyTime() != 0 || r.FreeAt() != 0 || r.Uses() != 0 {
		t.Error("Reset did not clear resource")
	}
}

// Property: a resource never overlaps reservations and never goes backwards.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		r := NewResource("p")
		prevEnd := Time(0)
		at := Time(0)
		for _, q := range reqs {
			hold := Time(q%97) + 1
			at += Time(q % 13)
			start := r.Acquire(at, hold)
			if start < at || start < prevEnd {
				return false
			}
			prevEnd = start + hold
			if r.FreeAt() != prevEnd {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPipeline(t *testing.T) {
	// 24-cycle latency at 4ns cycle, one op per cycle: the AES engine.
	p := NewPipeline("aes", 24*4*Nanosecond, 4*Nanosecond)
	d1 := p.Issue(0)
	if d1 != 96*Nanosecond {
		t.Fatalf("first op done at %v, want 96ns", d1)
	}
	d2 := p.Issue(0)
	if d2 != 100*Nanosecond {
		t.Fatalf("second op done at %v, want 100ns (one interval later)", d2)
	}
	// Six pads for a write request finish 5 intervals after the first.
	p.Reset()
	done := p.IssueN(0, 6)
	if done != (96+5*4)*Nanosecond {
		t.Fatalf("six pads done at %v, want 116ns", done)
	}
	if p.Ops() != 6 {
		t.Fatalf("Ops = %d, want 6", p.Ops())
	}
}

// TestIssueNMatchesIssueLoop checks IssueN's closed form against n calls
// of Issue on an identical pipeline, over random occupancy, issue times
// and counts: the completion time and the resource's FreeAt, BusyTime and
// Uses must all agree.
func TestIssueNMatchesIssueLoop(t *testing.T) {
	f := func(free, at uint32, n int8, lat, ival uint16) bool {
		latency, interval := Time(lat), Time(ival)+1
		closed := NewPipeline("closed", latency, interval)
		loop := NewPipeline("loop", latency, interval)
		// Put both pipelines in the same busy state.
		closed.issue.Acquire(0, Time(free))
		loop.issue.Acquire(0, Time(free))
		got := closed.IssueN(Time(at), int(n))
		want := Time(at)
		for i := 0; i < int(n); i++ {
			want = loop.Issue(Time(at))
		}
		a, b := closed.issue, loop.issue
		return got == want && a.FreeAt() == b.FreeAt() &&
			a.BusyTime() == b.BusyTime() && a.Uses() == b.Uses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPipelineInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPipeline with zero interval did not panic")
		}
	}()
	NewPipeline("bad", 10, 0)
}

// TestTryNanos covers the checked conversion: valid values round to the
// nearest picosecond, malformed ones (negative, NaN, Inf, overflow) return
// an error instead of panicking.
func TestTryNanos(t *testing.T) {
	valid := []struct {
		ns   float64
		want Time
	}{
		{0, 0},
		{1.5, 1500},
		{0.0004, 0}, // rounds down
		{0.0006, 1}, // rounds up to 1 ps
		{51.54, 51540},
		{1e9, Second},
	}
	for _, c := range valid {
		got, err := TryNanos(c.ns)
		if err != nil {
			t.Errorf("TryNanos(%v) unexpected error: %v", c.ns, err)
			continue
		}
		if got != c.want {
			t.Errorf("TryNanos(%v) = %d, want %d", c.ns, got, c.want)
		}
	}

	invalid := []float64{
		-1, -0.001, math.NaN(), math.Inf(1),
		float64(1<<63) / 1000, // exactly at the overflow boundary
		1e300,
	}
	for _, ns := range invalid {
		if got, err := TryNanos(ns); err == nil {
			t.Errorf("TryNanos(%v) = %d, want error", ns, got)
		}
	}
	// Negative infinity is negative, not NaN: still an error.
	if _, err := TryNanos(math.Inf(-1)); err == nil {
		t.Error("TryNanos(-Inf) accepted")
	}
}

// TestTryNanosAgreesWithNanos fuzzes the checked and panicking forms
// against each other over the valid domain.
func TestTryNanosAgreesWithNanos(t *testing.T) {
	f := func(raw uint32) bool {
		ns := float64(raw) / 17.0
		got, err := TryNanos(ns)
		if err != nil {
			return false
		}
		return got == Nanos(ns)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNanosPanicsOnNegative pins the panicking contract of the unchecked
// form (internal-model bug escalation).
func TestNanosPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nanos(-1) did not panic")
		}
	}()
	Nanos(-1)
}
