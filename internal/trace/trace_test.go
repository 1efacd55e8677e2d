package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
)

// TestNilRecorderIsNoOp pins the off-by-default discipline: every method on
// a nil recorder must be safe and free of observable effect.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder claims enabled")
	}
	if r.Track("x") != 0 || r.Name("s") != 0 || r.Label("l") != 0 {
		t.Error("nil recorder registered an ID")
	}
	r.Span(0, 0, CatBus, 0, 0, 10, Int(KeyRow, 1))
	r.Instant(0, 0, 0, 5, Bool(KeyWrite, true))
	id := r.BeginRequest(0, 0x40, 0)
	if id != 0 {
		t.Errorf("nil BeginRequest = %d, want 0", id)
	}
	r.EndRequest(id, 100)
	if r.Len() != 0 || r.Dropped() != 0 || r.Limit() != 0 || r.Spans() != nil {
		t.Error("nil recorder has state")
	}
	att := r.Attribution("")
	if att.Requests != 0 {
		t.Error("nil recorder attributed requests")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var f map[string]any
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil export is not JSON: %v", err)
	}
}

// TestRingEviction fills past the limit and checks oldest-first eviction
// with an accurate dropped count.
func TestRingEviction(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Span(0, r.Track("t"), CatOther, r.Name(names.Name(fmt.Sprintf("s%d", i))), sim.Time(i), sim.Time(i+1))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	spans := r.Spans()
	for i, s := range spans {
		want := fmt.Sprintf("s%d", 6+i)
		if s.Name != want {
			t.Errorf("span %d = %q, want %q (oldest-first order)", i, s.Name, want)
		}
	}
	if New(0).Limit() != DefaultLimit {
		t.Error("non-positive limit did not default")
	}
}

// TestBreakdownExact exercises the sweep partition: overlap resolved by
// priority, gaps attributed to other, residual identically zero.
func TestBreakdownExact(t *testing.T) {
	spans := []Span{
		{Cat: CatQueue, Phase: PhaseSpan, Begin: 0, End: 40},
		{Cat: CatBus, Phase: PhaseSpan, Begin: 30, End: 60}, // overlaps queue: bus wins on [30,40]
		{Cat: CatPCM, Phase: PhaseSpan, Begin: 50, End: 90}, // overlaps bus: pcm wins on [50,60]
		{Cat: CatCrypto, Phase: PhaseSpan, Begin: 100, End: 120},
		{Cat: CatCrypto, Phase: PhaseSpan, Begin: 110, End: 300}, // clipped at end=200
		{Cat: CatBus, Phase: PhaseInstant, Begin: 95, End: 95},   // instants never attribute
	}
	bd := sweep(0, 200, spans)
	if spec := breakdownSpec(0, 200, spans); bd != spec {
		t.Fatalf("sweep = %+v, spec = %+v", bd, spec)
	}
	if bd.TotalPS != 200 {
		t.Fatalf("TotalPS = %d", bd.TotalPS)
	}
	want := map[Category]int64{
		CatQueue:  30,  // [0,30)
		CatBus:    20,  // [30,50)
		CatPCM:    40,  // [50,90)
		CatCrypto: 100, // [100,200)
		CatOther:  10,  // [90,100) uncovered
	}
	for cat, w := range want {
		if bd.Parts[cat] != w {
			t.Errorf("%v = %d ps, want %d", cat, bd.Parts[cat], w)
		}
	}
	if res := bd.ResidualPS(); res != 0 {
		t.Errorf("residual = %d ps, want 0", res)
	}

	// Degenerate windows.
	if bd := sweep(100, 100, spans); bd.TotalPS != 0 || bd.ResidualPS() != 0 {
		t.Error("empty window not zero")
	}
	if bd := sweep(0, 50, nil); bd.Parts[CatOther] != 50 || bd.ResidualPS() != 0 {
		t.Error("uncovered window not attributed to other")
	}
}

// TestRequestAttribution drives requests through the recorder and checks
// the report: counts, kind filter, exact residual, percentile rows.
func TestRequestAttribution(t *testing.T) {
	r := New(1000)
	// Two reads (100 ps and 300 ps total) and one write (200 ps).
	link, data := r.Track("link"), r.Name("data")
	mkReq := func(kind names.Name, begin, end sim.Time, busEnd sim.Time) {
		id := r.BeginRequest(r.Name(kind), 0x1000, begin)
		r.Span(1, link, CatBus, data, begin, busEnd)
		r.EndRequest(id, end)
	}
	mkReq(names.ReqRead, 0, 100, 40)
	mkReq(names.ReqRead, 1000, 1300, 1100)
	mkReq(names.ReqWrite, 2000, 2200, 2150)

	att := r.Attribution("")
	if att.Requests != 3 || att.Reads != 2 || att.Writes != 1 {
		t.Fatalf("counts = %d/%d/%d", att.Requests, att.Reads, att.Writes)
	}
	if att.MaxResidualPS != 0 {
		t.Fatalf("MaxResidualPS = %d, want 0", att.MaxResidualPS)
	}
	if att.Sampled != 3 {
		t.Fatalf("Sampled = %d", att.Sampled)
	}
	rows := map[string]AttributionRow{}
	for _, row := range att.Rows {
		rows[row.Component] = row
	}
	// Totals in ns: 0.1, 0.3, 0.2 -> mean 0.2, p50 0.2 (rank 2 of 3).
	if got := rows["total"].MeanNS; got < 0.199 || got > 0.201 {
		t.Errorf("total mean = %v ns", got)
	}
	if got := rows["total"].P50NS; got != 0.2 {
		t.Errorf("total p50 = %v ns", got)
	}
	// Bus parts: 40, 100, 150 ps -> mean ~0.0966 ns.
	if got := rows["bus"].MeanNS; got < 0.0966 || got > 0.0967 {
		t.Errorf("bus mean = %v ns", got)
	}
	// Component means sum to the total mean (partition is exact).
	sum := 0.0
	for _, c := range []string{"queue", "bus", "crypto", "pcm", "other"} {
		sum += rows[c].MeanNS
	}
	if d := sum - rows["total"].MeanNS; d > 1e-9 || d < -1e-9 {
		t.Errorf("component means sum %v != total mean %v", sum, rows["total"].MeanNS)
	}

	// Kind filter.
	readsOnly := r.Attribution("read")
	if readsOnly.Sampled != 2 {
		t.Errorf("read filter sampled %d", readsOnly.Sampled)
	}

	// Table rendering carries the rows and the residual note.
	tbl := att.Table("Attribution").String()
	for _, want := range []string{"queue", "bus", "crypto", "pcm", "other", "total", "residual"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

// TestRequestEnvelope checks the envelope span pushed by EndRequest: it
// carries the per-category breakdown in ns and the request tag.
func TestRequestEnvelope(t *testing.T) {
	r := New(100)
	id := r.BeginRequest(r.Name(names.ReqRead), 0xabc0, 10)
	r.Span(1, r.Track("bank"), CatPCM, r.Name("row-hit"), 20, 80)
	r.EndRequest(id, 110)

	spans := r.Spans()
	env := spans[len(spans)-1]
	if env.TID != "requests" || env.Name != "read" || env.Begin != 10 || env.End != 110 {
		t.Fatalf("envelope = %+v", env)
	}
	args := map[string]any{}
	for _, a := range env.Args {
		args[a.Key] = a.Val
	}
	if args["addr"] != "0xabc0" {
		t.Errorf("addr arg = %v", args["addr"])
	}
	if args["pcm_ns"] != 0.06 {
		t.Errorf("pcm_ns = %v, want 0.06", args["pcm_ns"])
	}
	if args["other_ns"] != 0.04 {
		t.Errorf("other_ns = %v, want 0.04", args["other_ns"])
	}
	// Component spans recorded inside the scope carry the request ID.
	if spans[0].Req != id {
		t.Errorf("component span req = %d, want %d", spans[0].Req, id)
	}
	// Spans outside any scope carry req 0.
	r.Span(0, r.Track("t"), CatOther, r.Name("outside"), 200, 210)
	spans = r.Spans()
	if spans[len(spans)-1].Req != 0 {
		t.Error("span outside request scope tagged with a request")
	}
}

// TestChromeExportRoundTrip validates the export contract end to end:
// parseable JSON, ns display unit, named tracks, complete X events with
// durations, per-track monotonic timestamps, dropped count surfaced.
func TestChromeExportRoundTrip(t *testing.T) {
	r := New(3) // force eviction so otherData reports drops
	read, link, ctl := r.Name(names.ReqRead), r.Track("req-link"), r.Track("ctl")
	cmd, decode := r.Name("cmd"), r.Name("decode")
	for i := 0; i < 5; i++ {
		id := r.BeginRequest(read, uint64(i)*64, sim.Time(i*100))
		r.Span(1, link, CatBus, cmd, sim.Time(i*100), sim.Time(i*100+13))
		r.Instant(1, ctl, decode, sim.Time(i*100+13))
		r.EndRequest(id, sim.Time(i*100+90))
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	var f struct {
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
		TraceEvents     []struct {
			Name  string         `json:"name"`
			Ph    string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   *float64       `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export does not round-trip through encoding/json: %v", err)
	}
	if f.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	if f.OtherData["droppedSpans"].(float64) != float64(r.Dropped()) {
		t.Errorf("droppedSpans = %v, want %d", f.OtherData["droppedSpans"], r.Dropped())
	}

	lastTS := map[string]float64{}
	var xEvents, metadata int
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			metadata++
			continue
		case "X":
			xEvents++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("X event %q without non-negative dur", ev.Name)
			}
		case "i":
			if ev.Scope != "t" {
				t.Errorf("instant %q scope = %q", ev.Name, ev.Scope)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		key := fmt.Sprintf("%d/%d", ev.PID, ev.TID)
		if ev.TS < lastTS[key] {
			t.Errorf("track %s ts went backwards: %v after %v", key, ev.TS, lastTS[key])
		}
		lastTS[key] = ev.TS
	}
	if xEvents == 0 || metadata == 0 {
		t.Fatalf("export missing events: %d X, %d M", xEvents, metadata)
	}
}

// TestSampler checks boundary accounting: one row per crossed interval,
// snapshot values frozen at crossing time, CSV shape.
func TestSampler(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Scope("x").Counter("hits")
	s := NewSampler(reg, 10*sim.Microsecond)

	ctr.Inc()
	s.Advance(5 * sim.Microsecond) // before first boundary: nothing
	if s.Rows() != 0 {
		t.Fatalf("rows after 5us = %d", s.Rows())
	}
	s.Advance(10 * sim.Microsecond) // boundary 1
	ctr.Inc()
	s.Advance(47 * sim.Microsecond) // boundaries 2,3,4
	if s.Rows() != 4 {
		t.Fatalf("rows = %d, want 4", s.Rows())
	}
	s.Advance(47 * sim.Microsecond) // no new boundary
	if s.Rows() != 4 {
		t.Fatalf("re-advance grew rows to %d", s.Rows())
	}

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header + 4 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "time_us,x.hits" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "10.000,1" {
		t.Errorf("row 1 = %q (counter frozen at crossing)", lines[1])
	}
	if lines[4] != "40.000,2" {
		t.Errorf("row 4 = %q", lines[4])
	}

	var nilS *Sampler
	nilS.Advance(100) // no-op, no panic
	if nilS.Rows() != 0 || nilS.Dropped() != 0 || nilS.Interval() != 0 {
		t.Error("nil sampler has state")
	}
	if err := nilS.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	defer func() {
		if recover() == nil {
			t.Error("NewSampler(0) did not panic")
		}
	}()
	NewSampler(reg, 0)
}

// TestSamplerCap drives past the retention cap and checks drops are
// counted, never silent.
func TestSamplerCap(t *testing.T) {
	s := NewSampler(nil, 1) // 1 ps interval, nil registry (empty snapshots)
	s.Advance(sim.Time(DefaultSampleLimit + 7))
	if s.Rows() != DefaultSampleLimit {
		t.Fatalf("rows = %d, want cap %d", s.Rows(), DefaultSampleLimit)
	}
	if s.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", s.Dropped())
	}
}
