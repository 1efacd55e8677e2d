package trace

import (
	"sort"

	"obfusmem/internal/sim"
	"obfusmem/internal/stats"
)

// Latency attribution partitions each request's end-to-end window over the
// span categories. The partition is exact by construction: every
// picosecond of [issue, done] is assigned to exactly one category (the
// highest-priority category whose spans cover it, or "other" when none
// do), so the per-category parts sum to the end-to-end latency with zero
// residual. This is what lets the attribution table make the paper's
// Section 5 decomposition arguments (MAC overlap, dummy piggybacking)
// inspectable per request instead of only in aggregate.

// byPriority lists the covering categories from the highest priority down:
// overlapping spans resolve in favour of service over waiting, and time no
// span covers is "other".
var byPriority = [...]Category{CatPCM, CatBus, CatCrypto, CatQueue}

// Breakdown is one request's exact latency partition, in picoseconds.
type Breakdown struct {
	TotalPS int64
	Parts   [numCategories]int64
}

// ResidualPS returns TotalPS minus the sum of parts (always 0 by
// construction; kept as a checkable invariant).
//
//obfus:hotpath
func (b Breakdown) ResidualPS() int64 {
	s := b.TotalPS
	for _, p := range b.Parts {
		s -= p
	}
	return s
}

// Sweep events are packed into one uint64 each: the time relative to the
// window start, then the category, then an open/close bit. Sorting the keys
// orders the events by time.
const (
	evShift   = 4
	evOpen    = 1
	maxWindow = 1<<(63-evShift) - 1 // ps; far beyond any request latency
)

// breakdown partitions [begin, end] over the open request's component spans
// with one sweep over their sorted open/close events, tracking how many
// spans of each category are open. Its event buffer is recorder-owned, so it
// never allocates once the buffer has grown to the largest request.
//
//obfus:hotpath
func (r *Recorder) breakdown(begin, end sim.Time) Breakdown {
	bd := Breakdown{TotalPS: int64(end - begin)}
	if end <= begin {
		return bd
	}
	if bd.TotalPS > maxWindow {
		panic("trace: request window exceeds the attribution sweep's range")
	}
	r.evs = r.evs[:0]
	for _, v := range r.cur {
		b, e := max(v.b, begin), min(v.e, end)
		if e <= b {
			continue
		}
		c := uint64(v.cat) << 1
		r.evs = append(r.evs, uint64(b-begin)<<evShift|c|evOpen, uint64(e-begin)<<evShift|c)
	}
	sortKeys(r.evs)
	var open [numCategories]int32
	prev := int64(0)
	for _, k := range r.evs {
		if t := int64(k >> evShift); t > prev {
			bd.Parts[covering(&open)] += t - prev
			prev = t
		}
		if k&evOpen != 0 {
			open[k>>1&7]++
		} else {
			open[k>>1&7]--
		}
	}
	bd.Parts[CatOther] += bd.TotalPS - prev
	return bd
}

// covering returns the highest-priority category with an open span.
//
//obfus:hotpath
func covering(open *[numCategories]int32) Category {
	for _, c := range byPriority {
		if open[c] > 0 {
			return c
		}
	}
	return CatOther
}

// sortKeys is an insertion sort: a request has a few dozen events, and most
// arrive nearly in order.
//
//obfus:hotpath
func sortKeys(ks []uint64) {
	for i := 1; i < len(ks); i++ {
		k := ks[i]
		j := i
		for j > 0 && ks[j-1] > k {
			ks[j] = ks[j-1]
			j--
		}
		ks[j] = k
	}
}

// attribState accumulates per-request breakdowns for the report. Retention
// is capped (same spirit as the span ring); overflowing samples are counted
// but not retained, so percentiles cover the first `limit` requests while
// counts and the residual invariant cover every request.
type attribState struct {
	limit         int
	samples       []Breakdown
	kinds         []NameID // parallel to samples: names.ReqRead/ReqWrite
	reads, writes uint64
	droppedSmp    uint64
	maxResidual   int64
}

func newAttribState(limit int) attribState {
	return attribState{limit: limit}
}

//obfus:hotpath
func (a *attribState) add(kind NameID, write bool, bd Breakdown) {
	if write {
		a.writes++
	} else {
		a.reads++
	}
	if res := bd.ResidualPS(); res > a.maxResidual || -res > a.maxResidual {
		if res < 0 {
			res = -res
		}
		a.maxResidual = res
	}
	if len(a.samples) >= a.limit {
		a.droppedSmp++
		return
	}
	a.samples = append(a.samples, bd)
	a.kinds = append(a.kinds, kind)
}

// AttributionRow is one component's latency statistics in nanoseconds.
type AttributionRow struct {
	Component string  `json:"component"`
	MeanNS    float64 `json:"mean_ns"`
	P50NS     float64 `json:"p50_ns"`
	P95NS     float64 `json:"p95_ns"`
	P99NS     float64 `json:"p99_ns"`
}

// Attribution is the per-request latency-attribution report.
type Attribution struct {
	Requests       uint64 `json:"requests"`
	Reads          uint64 `json:"reads"`
	Writes         uint64 `json:"writes"`
	Sampled        int    `json:"sampled"`
	DroppedSamples uint64 `json:"dropped_samples"`
	// MaxResidualPS is the largest |total - sum(parts)| over every request
	// (0 by construction of the sweep partition).
	MaxResidualPS int64            `json:"max_residual_ps"`
	Rows          []AttributionRow `json:"rows"`
}

// attribOrder fixes the report row order.
var attribOrder = []Category{CatQueue, CatBus, CatCrypto, CatPCM, CatOther}

// Attribution builds the report over all finished requests. kindFilter
// selects "read", "write", or "" for all.
func (r *Recorder) Attribution(kindFilter string) Attribution {
	if r == nil {
		return Attribution{}
	}
	a := &r.attrib
	rep := Attribution{
		Requests:       a.reads + a.writes,
		Reads:          a.reads,
		Writes:         a.writes,
		DroppedSamples: a.droppedSmp,
		MaxResidualPS:  a.maxResidual,
	}
	perCat := make([][]float64, numCategories)
	var totals []float64
	for i, bd := range a.samples {
		if kindFilter != "" && r.strs[a.kinds[i]] != kindFilter {
			continue
		}
		totals = append(totals, psToNS(bd.TotalPS))
		for c := Category(0); c < numCategories; c++ {
			perCat[c] = append(perCat[c], psToNS(bd.Parts[c]))
		}
	}
	rep.Sampled = len(totals)
	// Each column is summed in sample order (the mean's rounding depends on
	// it), then sorted once for all three percentiles.
	row := func(name string, xs []float64) AttributionRow {
		mean := stats.Mean(xs)
		sort.Float64s(xs)
		return AttributionRow{
			Component: name,
			MeanNS:    mean,
			P50NS:     stats.PercentileSorted(xs, 50),
			P95NS:     stats.PercentileSorted(xs, 95),
			P99NS:     stats.PercentileSorted(xs, 99),
		}
	}
	for _, c := range attribOrder {
		rep.Rows = append(rep.Rows, row(c.String(), perCat[c]))
	}
	rep.Rows = append(rep.Rows, row("total", totals))
	return rep
}

// Table renders the report as an aligned stats.Table for the experiment
// harness.
func (a Attribution) Table(title string) *stats.Table {
	t := stats.NewTable(title, "component", "mean-ns", "p50-ns", "p95-ns", "p99-ns")
	for _, r := range a.Rows {
		t.AddRowf(2, r.Component, r.MeanNS, r.P50NS, r.P95NS, r.P99NS)
	}
	t.AddNote("%d requests (%d reads, %d writes); breakdown sampled over %d",
		a.Requests, a.Reads, a.Writes, a.Sampled)
	if a.DroppedSamples > 0 {
		t.AddNote("%d request samples beyond the retention cap were dropped from percentiles", a.DroppedSamples)
	}
	t.AddNote("max per-request residual |total - sum(parts)| = %d ps", a.MaxResidualPS)
	return t
}
