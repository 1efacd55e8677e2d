package trace

import (
	"sort"
	"testing"

	"obfusmem/internal/names"
	"obfusmem/internal/sim"
)

// catPriority resolves overlapping spans: service over waiting.
var catPriority = [numCategories]int{
	CatPCM:    4,
	CatBus:    3,
	CatCrypto: 2,
	CatQueue:  1,
	CatOther:  0,
}

// breakdownSpec is the reference partition the recorder's sweep must match:
// for every elementary interval between consecutive cut points, the
// highest-priority covering category. It allocates freely and sorts with
// sort.Slice.
func breakdownSpec(begin, end sim.Time, spans []Span) Breakdown {
	bd := Breakdown{TotalPS: int64(end - begin)}
	if end <= begin {
		return bd
	}
	// Collect clipped, non-empty intervals.
	type iv struct {
		b, e sim.Time
		cat  Category
	}
	ivs := make([]iv, 0, len(spans))
	cuts := make([]sim.Time, 0, 2*len(spans)+2)
	for _, s := range spans {
		if s.Phase != PhaseSpan {
			continue
		}
		b, e := s.Begin, s.End
		if b < begin {
			b = begin
		}
		if e > end {
			e = end
		}
		if e <= b {
			continue
		}
		ivs = append(ivs, iv{b, e, s.Cat})
		cuts = append(cuts, b, e)
	}
	if len(ivs) == 0 {
		bd.Parts[CatOther] = bd.TotalPS
		return bd
	}
	cuts = append(cuts, begin, end)
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	prev := begin
	for _, c := range cuts {
		if c <= prev {
			continue
		}
		// Elementary interval [prev, c): pick the highest-priority
		// covering category ("other" when uncovered).
		best := CatOther
		covered := false
		for _, v := range ivs {
			if v.b <= prev && v.e >= c {
				if !covered || catPriority[v.cat] > catPriority[best] {
					best = v.cat
				}
				covered = true
			}
		}
		bd.Parts[best] += int64(c - prev)
		prev = c
	}
	if prev < end {
		bd.Parts[CatOther] += int64(end - prev)
	}
	return bd
}

// sweep runs the recorder's sweep over the complete spans of a list, as
// Span would have collected them into the open request's scratch.
func sweep(begin, end sim.Time, spans []Span) Breakdown {
	r := New(16)
	for _, s := range spans {
		if s.Phase == PhaseSpan {
			r.cur = append(r.cur, interval{s.Begin, s.End, s.Cat})
		}
	}
	return r.breakdown(begin, end)
}

// FuzzBreakdownMatchesSpec drives random requests through the recorder and
// checks each recorded breakdown against breakdownSpec. Every 4 input bytes
// are one span — begin offset, signed duration, category, instant flag —
// around a short window, so overlapping, clipped, zero-length, inverted, and
// instant spans are all common. Two requests per input share the recorder,
// so the second runs on reused scratch.
func FuzzBreakdownMatchesSpec(f *testing.F) {
	f.Add(uint8(0), uint8(200), []byte{
		0, 40, byte(CatQueue), 0,
		30, 30, byte(CatBus), 0,
		50, 40, byte(CatPCM), 0,
		100, 20, byte(CatCrypto), 0,
		110, 190, byte(CatCrypto), 0,
		95, 0, byte(CatBus), 1,
	})
	f.Add(uint8(10), uint8(0), []byte{10, 5, byte(CatBus), 0})
	f.Add(uint8(50), uint8(100), []byte{0xf0, 40, byte(CatPCM), 0, 0xf0, 0x80, byte(CatBus), 0, 60, 0, byte(CatQueue), 0})
	f.Fuzz(func(t *testing.T, begin, length uint8, data []byte) {
		if len(data) > 4*64 {
			data = data[:4*64] // requests carry a few dozen spans; both sweeps are quadratic
		}
		r := New(64)
		track, name := r.Track("t"), r.Name("s")
		for round := sim.Time(0); round < 2; round++ {
			b0 := sim.Time(begin) + round*1000
			end := b0 + sim.Time(length)
			var spans []Span
			id := r.BeginRequest(r.Name(names.ReqRead), 0x40, b0)
			for i := 0; i+4 <= len(data); i += 4 {
				sb := b0 + sim.Time(int8(data[i]))
				se := sb + sim.Time(int8(data[i+1]))
				cat := Category(data[i+2] % byte(numCategories))
				if data[i+3]&1 == 1 {
					r.Instant(0, track, name, sb)
					spans = append(spans, Span{Cat: CatOther, Phase: PhaseInstant, Begin: sb, End: sb})
					continue
				}
				r.Span(0, track, cat, name, sb, se)
				if se < sb {
					se = sb // Span clips inverted intervals
				}
				spans = append(spans, Span{Cat: cat, Phase: PhaseSpan, Begin: sb, End: se})
			}
			r.EndRequest(id, end)
			got := r.attrib.samples[len(r.attrib.samples)-1]
			if want := breakdownSpec(b0, end, spans); got != want {
				t.Fatalf("round %d: sweep %+v, spec %+v (spans %+v)", round, got, want, spans)
			}
			if res := got.ResidualPS(); res != 0 {
				t.Fatalf("round %d: residual %d ps", round, res)
			}
		}
	})
}

// TestSpanZeroAllocs pins the recorder's per-span contract: once the ring's
// chunks exist, a span or instant with typed arguments allocates nothing.
func TestSpanZeroAllocs(t *testing.T) {
	r := New(64)
	track, name, lbl := r.Track("req-link"), r.Name("cmd+data"), r.Label("read")
	for i := 0; i < 100; i++ { // wrap the ring
		r.Span(1, track, CatBus, name, 0, 10)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Span(1, track, CatBus, name, 0, 10,
			Int(KeyBytes, 80), Label(KeyType, lbl), Bool(KeyDummy, true), Uint(KeySeq, 7))
		r.Instant(1, track, name, 5, Hex(KeyAddr, 0x40), NS(KeySlackNS, 1500))
	})
	if allocs != 0 {
		t.Fatalf("Span+Instant allocate %v times per call, want 0", allocs)
	}
}

// TestRequestCycleZeroAllocs pins the request scope: BeginRequest, a dozen
// overlapping component spans, and EndRequest (sweep, attribution sample,
// envelope) allocate nothing on a warmed recorder.
func TestRequestCycleZeroAllocs(t *testing.T) {
	r := New(64)
	kind, track, name := r.Name(names.ReqRead), r.Track("t"), r.Name("s")
	cats := [...]Category{CatQueue, CatCrypto, CatBus, CatPCM, CatOther, CatBus}
	cycle := func() {
		id := r.BeginRequest(kind, 0x1000, 100)
		for i := 0; i < 12; i++ {
			b := sim.Time(100 + 7*i)
			r.Span(1, track, cats[i%len(cats)], name, b, b+20, Int(KeyRow, int64(i)))
		}
		r.EndRequest(id, 200)
	}
	for i := 0; i < 100; i++ { // wrap the ring and fill the attribution samples
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("request cycle allocates %v times, want 0", allocs)
	}
}

// TestTypedArgsDecode checks that each argument kind decodes to the value
// and type the JSON export has always carried.
func TestTypedArgsDecode(t *testing.T) {
	r := New(8)
	r.Span(1, r.Track("t"), CatBus, r.Name("s"), 0, 10,
		Int(KeyRow, -3), Uint(KeySeq, 1<<63), Bool(KeyDummy, true),
		Label(KeyType, r.Label("write")), Hex(KeyAddr, 0xabc0), NS(KeySlackNS, 1500))
	got := map[string]any{}
	for _, a := range r.Spans()[0].Args {
		got[a.Key] = a.Val
	}
	want := map[string]any{
		"row": int64(-3), "seq": uint64(1 << 63), "dummy": true,
		"type": "write", "addr": "0xabc0", "slack_ns": 1.5,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %#v, want %#v", k, got[k], w)
		}
	}
}
