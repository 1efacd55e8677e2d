// Package trace is the simulator's request-lifecycle tracing layer: a
// bounded span recorder keyed by request ID, threaded through every timed
// component (CPU issue, cache hit/miss, memory controller, bus legs,
// ObfusMem crypto, PCM banks).
//
// It follows the same off-by-default discipline as internal/metrics: a nil
// *Recorder is the disabled recorder, every method on it is a single-branch
// no-op, and components keep permanent recorder fields they call
// unconditionally. Recording a span never allocates once the ring's chunks
// exist: a component resolves its track, span-name, and label IDs once,
// when it is handed the recorder (on a nil recorder every ID is 0 and
// nothing is registered), and passes typed arguments (Int, Uint, Bool,
// Hex, NS, Label) that are stored inline as 64 raw bits. Strings are
// formatted only when exporting.
//
// Three consumers sit on top of the recorder:
//
//   - Chrome trace-event JSON export (WriteChromeTrace), loadable in
//     Perfetto or chrome://tracing, with pid = channel and tid = engine or
//     bank, so a run can be inspected as a bus-transaction timeline.
//   - A per-request latency-attribution table (Attribution): each finished
//     request's [issue, done] window is partitioned exactly — to the
//     picosecond — over queue/bus/crypto/pcm/other using the component
//     spans recorded while it was in flight.
//   - A time-series sampler (Sampler, sampler.go) that snapshots a metrics
//     registry on fixed sim-time boundaries for CSV plotting.
//
// Retention is a ring buffer: once the configured span limit is reached the
// oldest spans are evicted and counted in Dropped(). Truncation is never
// silent — exporters embed the dropped count and callers are expected to
// surface it.
package trace

import (
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
)

// Category classifies a span for latency attribution.
type Category int8

// Attribution categories. Priority for overlapping spans is resolved in
// favour of service over waiting: PCM > Bus > Crypto > Queue > Other.
const (
	CatOther Category = iota
	CatQueue
	CatCrypto
	CatBus
	CatPCM
	numCategories
)

func (c Category) String() string {
	switch c {
	case CatQueue:
		return "queue"
	case CatBus:
		return "bus"
	case CatCrypto:
		return "crypto"
	case CatPCM:
		return "pcm"
	default:
		return "other"
	}
}

// PIDCPU is the Chrome-trace process ID used for processor-side activity
// (request envelopes, the shared ObfusMem front end, cache levels).
const PIDCPU = 0

// ChannelPID maps a memory channel index to its Chrome-trace process ID.
func ChannelPID(ch int) int { return ch + 1 }

// Phase distinguishes span shapes in the Chrome export.
type Phase byte

// Span phases.
const (
	PhaseSpan    Phase = 'X' // complete event with duration
	PhaseInstant Phase = 'i' // point event
)

// Span is the decoded view of one recorded interval (or instant), built by
// Spans and the exporters from the recorder's compact records.
type Span struct {
	Req   uint64 // enclosing request ID; 0 when outside any request
	PID   int    // Chrome-trace process: PIDCPU or ChannelPID(ch)
	TID   string // track within the process: engine, link, or bank name
	Cat   Category
	Name  string
	Phase Phase
	Begin sim.Time
	End   sim.Time
	Args  []Arg
}

// Arg is one decoded key/value pair of a Span, with the value in the type
// its JSON export uses (int64, uint64, bool, float64, or string).
type Arg struct {
	Key string
	Val any
}

// TrackID, NameID, and LabelID index a recorder's string table: a track
// (Chrome tid) name, a span name, and a string argument value. IDs belong to
// the recorder that issued them.
type (
	TrackID uint32
	NameID  uint32
	LabelID uint32
)

// DefaultLimit is the default ring-buffer capacity (retained spans).
const DefaultLimit = 100_000

// maxArgs is the inline argument capacity of one record: the request
// envelope's address plus its five breakdown parts.
const maxArgs = 6

// record is the stored form of one span. It holds no pointers, so the
// chunks it lives in are never scanned by the garbage collector.
type record struct {
	req        uint64
	begin, end sim.Time
	pid        int32
	track      TrackID
	name       NameID
	cat        Category
	phase      Phase
	nargs      uint8
	keys       [maxArgs]Key
	kinds      [maxArgs]argKind
	bits       [maxArgs]uint64
}

// Records live in fixed-size chunks allocated as the ring fills: growth
// never copies, and a small run never pays for the full limit.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// interval is one component span of the open request, as the attribution
// sweep needs it.
type interval struct {
	b, e sim.Time
	cat  Category
}

// Recorder collects spans into a bounded ring buffer and accumulates
// per-request latency breakdowns. A Recorder is single-threaded, matching
// the synchronous call graph of one simulated machine; concurrent systems
// must each use their own Recorder.
//
// The nil Recorder is the disabled recorder: every method is a no-op.
type Recorder struct {
	limit   int
	chunks  [][]record
	n       int // retained records
	next    int // oldest record (next to overwrite) once the ring is full
	dropped uint64

	// String table shared by tracks, span names, and labels; an ID is an
	// index. Entries are not deduplicated: each component registers its
	// handful once, and the exporters compare strings, never IDs.
	strs []string

	requests TrackID // the request-envelope track

	// Current-request scope. The simulation services each request with a
	// synchronous call tree, so component spans recorded between
	// BeginRequest and EndRequest belong to that request.
	reqSeq   uint64
	curReq   uint64
	curKind  NameID
	curAddr  uint64
	curBegin sim.Time
	cur      []interval // component spans of the open request (scratch)
	evs      []uint64   // attribution sweep events (scratch)

	attrib attribState
}

// strsHint presizes the string table for the tracks, span names, and labels
// one machine registers (about 70).
const strsHint = 96

// New returns an enabled recorder retaining at most limit spans
// (DefaultLimit when limit <= 0).
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultLimit
	}
	r := &Recorder{limit: limit, strs: make([]string, 0, strsHint), attrib: newAttribState(limit)}
	r.requests = r.Track("requests")
	return r
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

func (r *Recorder) add(s string) uint32 {
	r.strs = append(r.strs, s)
	return uint32(len(r.strs) - 1)
}

// Track registers a track (Chrome tid) name and returns its ID. Components
// call it once, when they are handed the recorder; 0 on a nil recorder.
func (r *Recorder) Track(tid string) TrackID {
	if r == nil {
		return 0
	}
	return TrackID(r.add(tid))
}

// Name registers a span name from internal/names; 0 on a nil recorder.
func (r *Recorder) Name(n names.Name) NameID {
	if r == nil {
		return 0
	}
	return NameID(r.add(string(n)))
}

// Label registers a string argument value for Label args; 0 on a nil
// recorder.
func (r *Recorder) Label(s string) LabelID {
	if r == nil {
		return 0
	}
	return LabelID(r.add(s))
}

// slot returns the ring position for the next record, evicting the oldest
// when full.
//
//obfus:hotpath
func (r *Recorder) slot() *record {
	i := r.n
	if i < r.limit {
		if i>>chunkShift == len(r.chunks) {
			//lint:allow hotpath cold: one chunk per chunkLen records until the ring reaches its limit
			r.grow()
		}
		r.n++
	} else {
		// Ring is full: overwrite the oldest retained record.
		i = r.next
		r.next++
		if r.next == r.limit {
			r.next = 0
		}
		r.dropped++
	}
	return &r.chunks[i>>chunkShift][i&chunkMask]
}

// grow appends the next chunk, sized so the chunks never exceed the limit.
func (r *Recorder) grow() {
	n := r.limit - len(r.chunks)*chunkLen
	if n > chunkLen {
		n = chunkLen
	}
	r.chunks = append(r.chunks, make([]record, n))
}

// put stores one record, tagged with the open request (0 outside one).
//
//obfus:hotpath
func (r *Recorder) put(pid int, track TrackID, cat Category, name NameID, ph Phase, begin, end sim.Time, args []Attr) {
	if len(args) > maxArgs {
		panic("trace: more than maxArgs span arguments")
	}
	s := r.slot()
	s.req = r.curReq
	s.begin, s.end = begin, end
	s.pid = int32(pid)
	s.track, s.name = track, name
	s.cat, s.phase = cat, ph
	s.nargs = uint8(len(args))
	for i, a := range args {
		s.keys[i], s.kinds[i], s.bits[i] = a.key, a.kind, a.bits
	}
}

// Span records one component interval. No-op on a nil recorder.
//
//obfus:hotpath
func (r *Recorder) Span(pid int, track TrackID, cat Category, name NameID, begin, end sim.Time, args ...Attr) {
	if r == nil {
		return
	}
	if end < begin {
		end = begin
	}
	r.put(pid, track, cat, name, PhaseSpan, begin, end, args)
	if r.curReq != 0 {
		r.cur = append(r.cur, interval{begin, end, cat})
	}
}

// Instant records a point event (decode milestones, dummy drops, tamper
// detections). Instants never contribute to latency attribution.
//
//obfus:hotpath
func (r *Recorder) Instant(pid int, track TrackID, name NameID, at sim.Time, args ...Attr) {
	if r == nil {
		return
	}
	r.put(pid, track, CatOther, name, PhaseInstant, at, at, args)
}

// BeginRequest opens a request scope at its issue time and returns the
// request ID (0 on a nil recorder). kind is the registered names.ReqRead or
// names.ReqWrite. Component spans recorded until the matching EndRequest
// attach to this request. Requests do not nest: the core model is the only
// caller.
//
//obfus:hotpath
func (r *Recorder) BeginRequest(kind NameID, addr uint64, at sim.Time) uint64 {
	if r == nil {
		return 0
	}
	r.reqSeq++
	r.curReq = r.reqSeq
	r.curKind = kind
	r.curAddr = addr
	r.curBegin = at
	r.cur = r.cur[:0]
	return r.curReq
}

// EndRequest closes the request scope: it records the request envelope
// span, computes the exact per-category latency breakdown from the
// component spans observed in flight, and folds it into the attribution
// accumulator.
//
//obfus:hotpath
func (r *Recorder) EndRequest(id uint64, end sim.Time) {
	if r == nil || id == 0 || id != r.curReq {
		return
	}
	if end < r.curBegin {
		end = r.curBegin
	}
	bd := r.breakdown(r.curBegin, end)
	r.attrib.add(r.curKind, r.strs[r.curKind] == string(names.ReqWrite), bd)
	// The envelope is pushed after its components so chronological ring
	// eviction drops components before their envelope. Its address and
	// breakdown are stored raw and formatted only on export.
	args := [...]Attr{
		Hex(KeyAddr, r.curAddr),
		NS(KeyQueueNS, sim.Time(bd.Parts[CatQueue])),
		NS(KeyBusNS, sim.Time(bd.Parts[CatBus])),
		NS(KeyCryptoNS, sim.Time(bd.Parts[CatCrypto])),
		NS(KeyPCMNS, sim.Time(bd.Parts[CatPCM])),
		NS(KeyOtherNS, sim.Time(bd.Parts[CatOther])),
	}
	r.put(PIDCPU, r.requests, CatOther, r.curKind, PhaseSpan, r.curBegin, end, args[:])
	r.curReq = 0
	r.cur = r.cur[:0]
}

// at returns the i-th retained record, oldest first.
func (r *Recorder) at(i int) *record {
	if r.dropped > 0 {
		i += r.next
		if i >= r.limit {
			i -= r.limit
		}
	}
	return &r.chunks[i>>chunkShift][i&chunkMask]
}

// Spans returns the retained spans, oldest first, decoded.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, r.n)
	for i := range out {
		out[i] = r.decode(r.at(i))
	}
	return out
}

// decode expands a record into its Span view.
func (r *Recorder) decode(s *record) Span {
	sp := Span{Req: s.req, PID: int(s.pid), TID: r.strs[s.track], Cat: s.cat,
		Name: r.strs[s.name], Phase: s.phase, Begin: s.begin, End: s.end}
	if s.nargs > 0 {
		sp.Args = make([]Arg, s.nargs)
		for i := range sp.Args {
			sp.Args[i] = Arg{Key: s.keys[i].String(), Val: r.value(s.kinds[i], s.bits[i])}
		}
	}
	return sp
}

// Len returns the number of retained spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Dropped returns the number of spans evicted from the ring buffer.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Limit returns the ring-buffer capacity.
func (r *Recorder) Limit() int {
	if r == nil {
		return 0
	}
	return r.limit
}

func psToNS(ps int64) float64 { return float64(ps) / 1000.0 }
