// Package metrics is the simulator's observability layer: a zero-dependency
// registry of counters, gauges, and fixed-bucket latency histograms with
// per-component namespacing and a JSON snapshot exporter.
//
// Design constraints, in order:
//
//  1. Off by default, and nearly free when off. Every constructor and every
//     instrument method is safe on a nil receiver: a nil *Registry scopes to
//     nil, hands out nil instruments, and a nil instrument's Add/Set/Observe
//     is a single predictable branch. Components therefore keep permanent
//     instrument fields and update them unconditionally on the hot path.
//  2. Race-free under concurrent simulation runs. Experiment suites fan
//     benchmark runs out over goroutines that share one registry, so all
//     instrument state is atomic and registration is mutex-guarded.
//  3. Deterministic export. Snapshot output is sorted by name so two runs
//     of the same seeded simulation produce byte-identical JSON.
package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"obfusmem/internal/names"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil counter.
//
//obfus:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
//
//obfus:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move in either direction.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
//
//obfus:hotpath
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v exceeds the current value.
//
//obfus:hotpath
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (zero for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts durations into fixed buckets. Observations are integer
// picoseconds (a sim.Time); bounds, sum, mean and extrema read in
// nanoseconds. Bucket i counts observations <= Bounds[i]; one implicit
// overflow bucket counts the rest. Sum and extrema are tracked so means and
// tails survive the bucketing. The sum is an integer, so it is the same
// whatever order concurrent callers observe in.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is overflow
	count  atomic.Uint64
	sumPS  atomic.Int64
	minPS  atomic.Int64
	maxPS  atomic.Int64
}

// psPerNS converts the picosecond observations to the nanoseconds a
// histogram reports in.
const psPerNS = 1000

// LatencyBucketsNS is the default bucket layout for memory-system latencies
// in nanoseconds: fine around the PCM row-hit/row-miss boundary (13.75 ns
// CAS to 60 ns activate to 150 ns write-back), coarse in the queueing tail.
var LatencyBucketsNS = []float64{10, 25, 50, 75, 100, 150, 250, 500, 1000, 2500, 10000}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	h.minPS.Store(math.MaxInt64)
	h.maxPS.Store(math.MinInt64)
	return h
}

// Observe records one duration of ps picoseconds. No-op on a nil
// histogram.
//
//obfus:hotpath
func (h *Histogram) Observe(ps int64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, nanos(ps))
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumPS.Add(ps)
	for {
		old := h.minPS.Load()
		if old <= ps || h.minPS.CompareAndSwap(old, ps) {
			break
		}
	}
	for {
		old := h.maxPS.Load()
		if old >= ps || h.maxPS.CompareAndSwap(old, ps) {
			break
		}
	}
}

// nanos converts picoseconds to nanoseconds exactly as sim.Time's
// Float64Nanos does.
//
//obfus:hotpath
func nanos(ps int64) float64 { return float64(ps) / psPerNS }

// Count returns the number of observations (zero for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Mean returns the arithmetic mean of all observations (zero when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return nanos(h.sumPS.Load()) / float64(h.count.Load())
}

// registryData is the shared store behind all scopes of one registry.
type registryData struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Registry hands out named instruments. A Registry value is a view onto a
// shared store with a namespace prefix; Scope derives sub-views. The nil
// Registry is the disabled registry: it scopes to nil and returns nil
// instruments, whose methods are no-ops.
type Registry struct {
	data   *registryData
	prefix string
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{data: &registryData{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}}
}

// Scope returns a view whose instrument names are prefixed with name + ".".
// Names come from the internal/names registry (enforced by the obfuslint
// metricnames analyzer), so the fully-qualified dotted name of every
// instrument is discoverable from that one package.
func (r *Registry) Scope(name names.Name) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{data: r.data, prefix: r.prefix + string(name) + "."}
}

// Counter returns the named counter, creating it on first use. Two lookups
// of the same fully-qualified name return the same instrument, so scopes
// that collide aggregate rather than clobber.
func (r *Registry) Counter(name names.Name) *Counter {
	if r == nil {
		return nil
	}
	d := r.data
	full := r.prefix + string(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.counters[full]
	if !ok {
		c = &Counter{}
		d.counters[full] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name names.Name) *Gauge {
	if r == nil {
		return nil
	}
	d := r.data
	full := r.prefix + string(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	g, ok := d.gauges[full]
	if !ok {
		g = &Gauge{}
		d.gauges[full] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later bounds are ignored: first writer wins).
func (r *Registry) Histogram(name names.Name, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	d := r.data
	full := r.prefix + string(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.histograms[full]
	if !ok {
		h = newHistogram(bounds)
		d.histograms[full] = h
	}
	return h
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last bucket is overflow
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
	Min    float64   `json:"min"` // 0 when empty
	Max    float64   `json:"max"` // 0 when empty
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies out all instruments. A nil registry yields an empty (but
// non-nil-mapped) snapshot so consumers need no special casing.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	d := r.data
	d.mu.Lock()
	defer d.mu.Unlock()
	// Iterate in sorted-name order. The JSON encoder re-sorts map keys
	// anyway, but walking the store deterministically means every consumer
	// of Snapshot — not only WriteJSON — observes one canonical order, and
	// the obfuslint determinism analyzer can verify it locally.
	for _, name := range sortedKeys(d.counters) {
		s.Counters[name] = d.counters[name].Value()
	}
	for _, name := range sortedKeys(d.gauges) {
		s.Gauges[name] = d.gauges[name].Value()
	}
	for _, name := range sortedKeys(d.histograms) {
		h := d.histograms[name]
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    nanos(h.sumPS.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		if hs.Count > 0 {
			hs.Mean = hs.Sum / float64(hs.Count)
			hs.Min = nanos(h.minPS.Load())
			hs.Max = nanos(h.maxPS.Load())
		}
		s.Histograms[name] = hs
	}
	return s
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON writes the snapshot as indented JSON with sorted keys (the
// encoding/json map behaviour), ending with a newline.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
