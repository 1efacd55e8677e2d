// Package sim provides the discrete-event simulation engine that underlies
// every timed component in the repository: the CPU model, caches, the memory
// controller, the bus, the PCM device, and the ObfusMem cryptographic
// engines.
//
// Time is an integer number of picoseconds. Events are scheduled on a 4-ary
// min-heap keyed by (time, sequence) so that simultaneous events fire in the
// order they were scheduled, which keeps runs fully deterministic. The heap
// stores concrete *event pointers (no interface boxing) and fired or
// cancelled events are recycled through an engine-owned free list, so the
// steady-state Schedule→fire loop performs no heap allocation.
package sim

import (
	"fmt"
	"math"
	"time"

	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanos converts a floating-point nanosecond quantity to Time, rounding to
// the nearest picosecond. It panics on invalid input (negative, NaN, or out
// of range): internal model code computing such a duration is always a bug.
// Paths fed by external input (trace files, flags) should use TryNanos.
//
//obfus:hotpath
func Nanos(ns float64) Time {
	if !(ns >= 0 && ns < maxNanos) { // also catches NaN
		_, err := TryNanos(ns)
		panic("sim: " + err.Error())
	}
	return fromNanos(ns)
}

// fromNanos is the rounding conversion shared by Nanos and TryNanos, for
// an already validated quantity.
//
//obfus:hotpath
func fromNanos(ns float64) Time { return Time(ns*float64(Nanosecond) + 0.5) }

// maxNanos is the largest nanosecond quantity representable as Time without
// overflowing int64 picoseconds.
const maxNanos = float64(1<<63-1) / float64(Nanosecond)

// TryNanos is the checked form of Nanos: it rejects negative, NaN, and
// out-of-range values with an error instead of panicking, so callers
// parsing untrusted input (trace gaps, CLI flags) can surface a diagnostic
// rather than crash.
func TryNanos(ns float64) (Time, error) {
	if math.IsNaN(ns) {
		return 0, fmt.Errorf("duration is NaN")
	}
	if ns < 0 {
		return 0, fmt.Errorf("negative duration %gns", ns)
	}
	if ns >= maxNanos {
		return 0, fmt.Errorf("duration %gns overflows the picosecond clock", ns)
	}
	return fromNanos(ns), nil
}

// Float64Nanos reports t in nanoseconds.
func (t Time) Float64Nanos() float64 { return float64(t) / float64(Nanosecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// event is the engine-internal scheduled callback. Instances are recycled
// through the engine free list; gen is bumped on every reuse so stale
// EventRef handles held by callers can never touch the new occupant.
type event struct {
	at     Time
	seq    uint64
	gen    uint64
	fn     func()
	cancel bool
	queued bool
}

// EventRef is a handle to a scheduled event, returned by Schedule and
// After. It stays valid after the event fires or is cancelled: Cancel on a
// fired handle is a no-op, and once the underlying storage is recycled for
// a newer event the stale handle is detected by generation and ignored.
//
// The zero EventRef refers to nothing; Cancel(EventRef{}) is a no-op.
type EventRef struct {
	e   *event
	gen uint64
}

// Cancelled reports whether the event was cancelled before firing. A fired
// event — or a stale handle whose storage was recycled — reports false.
func (r EventRef) Cancelled() bool { return r.e != nil && r.e.gen == r.gen && r.e.cancel }

// When returns the time the event was scheduled to fire, or 0 for a zero or
// stale handle.
func (r EventRef) When() Time {
	if r.e != nil && r.e.gen == r.gen {
		return r.e.at
	}
	return 0
}

// Engine is a deterministic discrete-event simulator.
//
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	heap    []*event // 4-ary min-heap keyed by (at, seq)
	live    int      // queued events not yet cancelled
	free    []*event // recycled event storage
	fired   uint64
	stopped bool

	// Observability instruments (nil when metrics are disabled; all
	// updates below are nil-safe no-ops then).
	metFired     *metrics.Counter
	metCancelled *metrics.Counter
	metSimNow    *metrics.Gauge
	metEvRate    *metrics.Gauge // events fired per wall-clock second
	metSimRate   *metrics.Gauge // sim nanoseconds per wall-clock second
}

// NewEngine returns an engine at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// SetMetrics attaches the engine to a metrics registry under the "sim"
// scope. Passing nil detaches. Safe to call on an engine mid-run only
// between events.
func (e *Engine) SetMetrics(r *metrics.Registry) {
	sc := r.Scope(names.ScopeSim)
	if sc == nil {
		e.metFired, e.metCancelled = nil, nil
		e.metSimNow, e.metEvRate, e.metSimRate = nil, nil, nil
		return
	}
	e.metFired = sc.Counter(names.SimEventsFired)
	e.metCancelled = sc.Counter(names.SimEventsCancelled)
	e.metSimNow = sc.Gauge(names.SimNowNS)
	e.metEvRate = sc.Gauge(names.SimEventsPerWallS)
	e.metSimRate = sc.Gauge(names.SimNSPerWallS)
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live (not cancelled, not yet fired) events
// currently queued. Cancelled events awaiting lazy removal are excluded.
func (e *Engine) Pending() int { return e.live }

// alloc takes an event from the free list, or allocates when the list is
// empty (cold start and queue-depth growth only). Reuse bumps the
// generation, invalidating every EventRef issued for the prior occupant.
//
//obfus:hotpath
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.gen++
		ev.cancel = false
		return ev
	}
	//lint:allow hotpath cold start only: the free list is empty until the queue reaches steady-state depth
	return &event{}
}

// recycle returns a fired or dequeued-cancelled event to the free list. The
// cancel flag is left intact until reuse so existing handles keep answering
// Cancelled() truthfully for this generation.
//
//obfus:hotpath
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// less orders the heap by (at, seq). seq is unique, so the order is total
// and identical to the pre-rework container/heap engine.
//
//obfus:hotpath
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push inserts ev with the sift-up loop inlined (4-ary: parent of i is
// (i-1)/4).
//
//obfus:hotpath
func (e *Engine) push(ev *event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.heap = h
}

// pop removes and returns the minimum event, sifting the last element down
// (4-ary: children of i are 4i+1..4i+4).
//
//obfus:hotpath
func (e *Engine) pop() *event {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(h[j], h[m]) {
					m = j
				}
			}
			if !eventLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	e.heap = h
	return root
}

// Schedule runs fn at absolute time at. Scheduling in the past panics: that
// is always a model bug.
//
//obfus:hotpath
func (e *Engine) Schedule(at Time, fn func()) EventRef {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.queued = true
	e.seq++
	e.push(ev)
	e.live++
	return EventRef{e: ev, gen: ev.gen}
}

// After runs fn d picoseconds from now.
//
//obfus:hotpath
func (e *Engine) After(d Time, fn func()) EventRef {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.Schedule(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a true no-op: a fired event stays
// not-cancelled (Cancelled() keeps returning false), because it really ran.
// Stale handles — whose storage was recycled for a newer event — are
// detected by generation and ignored, so a retained EventRef can never
// cancel someone else's event.
//
// Cancellation is lazy: the event is tombstoned in place and discarded when
// it reaches the head of the queue, making Cancel O(1).
//
//obfus:hotpath
func (e *Engine) Cancel(r EventRef) {
	ev := r.e
	if ev == nil || ev.gen != r.gen || ev.cancel || !ev.queued {
		return
	}
	ev.cancel = true
	ev.fn = nil
	e.live--
	e.metCancelled.Inc()
}

// Step fires the next event. It reports false when the queue is empty.
//
//obfus:hotpath
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		ev := e.pop()
		ev.queued = false
		if ev.cancel {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		e.live--
		e.metFired.Inc()
		fn := ev.fn
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

// skipCancelled drops tombstoned events from the head of the heap so that
// peeking callers (RunUntil) see the next live event.
//
//obfus:hotpath
func (e *Engine) skipCancelled() {
	for len(e.heap) > 0 && e.heap[0].cancel {
		ev := e.pop()
		ev.queued = false
		e.recycle(ev)
	}
}

// Run fires events until the queue drains or Stop is called. When metrics
// are attached it also records the wall-clock event and sim-time rates of
// the run, the simulator's own "how fast is the hardware model" signal.
//
// The wall-clock reads feed throughput gauges only; simulated time is never
// derived from them, so determinism is preserved (hence the annotation).
//
//obfus:wallclock
func (e *Engine) Run() {
	e.stopped = false
	if e.metEvRate == nil {
		for !e.stopped && e.Step() {
		}
		return
	}
	wallStart := time.Now()
	firedStart := e.fired
	simStart := e.now
	for !e.stopped && e.Step() {
	}
	e.recordRates(wallStart, firedStart, simStart)
}

// recordRates publishes wall-clock-relative gauges for a completed run
// segment. Wall time influences gauge values only, never simulated state.
//
//obfus:wallclock
func (e *Engine) recordRates(wallStart time.Time, firedStart uint64, simStart Time) {
	wall := time.Since(wallStart).Seconds()
	if wall <= 0 {
		return
	}
	e.metSimNow.Set(e.now.Float64Nanos())
	e.metEvRate.Set(float64(e.fired-firedStart) / wall)
	e.metSimRate.Set((e.now - simStart).Float64Nanos() / wall)
}

// RunUntil fires events with timestamps <= deadline and then advances the
// clock to the deadline.
//
// Like Run, the time.Now read only seeds the rate gauges (see
// //obfus:wallclock in the package invariants).
//
//obfus:wallclock
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	wallStart := time.Time{}
	firedStart, simStart := e.fired, e.now
	if e.metEvRate != nil {
		wallStart = time.Now()
	}
	for !e.stopped {
		e.skipCancelled()
		if len(e.heap) == 0 || e.heap[0].at > deadline {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	if e.metEvRate != nil {
		e.recordRates(wallStart, firedStart, simStart)
	}
}

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Ticker invokes fn every period until cancelled via the returned stop
// function. The first invocation happens one period from now. Stopping
// cancels the pending tick, so a stopped ticker leaves no event behind to
// hold Run() open (obfuslint:eventref requires the Schedule/After result to
// be retained whenever a cancel path exists).
func (e *Engine) Ticker(period Time, fn func()) (stop func()) {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	done := false
	var next EventRef
	var tick func()
	tick = func() {
		if done {
			return
		}
		fn()
		if !done {
			next = e.After(period, tick)
		}
	}
	next = e.After(period, tick)
	return func() {
		if !done {
			done = true
			e.Cancel(next)
		}
	}
}

// Reset returns the engine to time zero with an empty queue, invalidating
// every outstanding EventRef: queued events have their generation bumped
// before recycling, so a handle retained across Reset can neither cancel
// nor observe the storage's next occupant (and obfuslint:eventref flags
// such retention statically).
func (e *Engine) Reset() {
	for _, ev := range e.heap {
		ev.gen++
		ev.queued = false
		ev.cancel = false
		e.recycle(ev)
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.live = 0
	e.fired = 0
	e.stopped = false
}
