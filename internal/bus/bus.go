// Package bus models the exposed processor-memory interconnect: the only
// part of an ObfusMem system an attacker can observe or tamper with
// (Section 2.1). Each memory channel is a split-transaction link with
// separate request and reply directions, a fixed bandwidth, and taps where
// passive observers and active tamperers attach.
//
// A packet carries exactly what would appear on the wires: a 16-byte
// command+address field (plaintext in an unprotected system, one AES block
// of ciphertext under ObfusMem), an optional 64-byte data payload, and an
// optional 8-byte MAC. Ground-truth fields (real address, request type,
// dummy flag) ride along for accounting and for tests, but observers are
// given only the wire view.
package bus

import (
	"fmt"

	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

// Direction of a transfer.
type Direction int

// Transfer directions.
const (
	ProcToMem Direction = iota
	MemToProc
)

func (d Direction) String() string {
	if d == ProcToMem {
		return "proc->mem"
	}
	return "mem->proc"
}

// ReqType is the ground-truth request type.
type ReqType byte

// Request types.
const (
	Read ReqType = iota + 1
	Write
)

func (t ReqType) String() string {
	switch t {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("ReqType(%d)", byte(t))
	}
}

// Wire sizes in bytes.
const (
	CmdBytes  = 16 // one AES block: command + address (+ padding)
	DataBytes = 64 // one cache block
	MACBytes  = 8  // truncated MD5 tag
)

// ControlKind tags the protocol control packets of the fault-tolerant bus
// protocol (NACK / counter resync). On the wire a control packet is one
// encrypted command-sized field (plus MAC when authentication is on), so an
// observer cannot distinguish it from an ordinary command; the kind rides
// along as ground truth for endpoints and tests.
type ControlKind int

// Control packet kinds.
const (
	// ControlNone marks an ordinary data-path packet.
	ControlNone ControlKind = iota
	// ControlNACK is the memory's rejection notice for a request that
	// failed MAC verification.
	ControlNACK
	// ControlResyncReq asks the memory to resynchronise the per-channel
	// CTR counters to the value carried (encrypted) in the command field.
	ControlResyncReq
	// ControlResyncResp acknowledges a resync.
	ControlResyncResp
)

func (k ControlKind) String() string {
	switch k {
	case ControlNone:
		return "none"
	case ControlNACK:
		return "nack"
	case ControlResyncReq:
		return "resync-req"
	case ControlResyncResp:
		return "resync-resp"
	default:
		return fmt.Sprintf("ControlKind(%d)", int(k))
	}
}

// Packet is one bus transfer.
type Packet struct {
	Channel int
	Dir     Direction

	// Wire view (what the attacker sees).
	CmdCipher [CmdBytes]byte // command+address field as transmitted
	HasCmd    bool
	Data      []byte // nil, or DataBytes of payload as transmitted
	MAC       uint64
	HasMAC    bool

	// Ground truth (invisible to observers; used by endpoints and tests).
	Type      ReqType
	Addr      uint64
	IsDummy   bool
	Plaintext bool // command field is plaintext (unprotected system)
	Counter   uint64
	Seq       uint64 // global issue sequence, for correlating req/reply
	// Control marks protocol control packets (NACK/resync); ControlNone
	// for the ordinary data path.
	Control ControlKind
}

// WireBytes returns the number of bytes the packet occupies on the link.
func (p *Packet) WireBytes() int {
	n := 0
	if p.HasCmd {
		n += CmdBytes
	}
	n += len(p.Data)
	if p.HasMAC {
		n += MACBytes
	}
	return n
}

// Observer receives a copy of every packet on a tapped channel, with the
// time the transfer started. Observers must not mutate the packet, and must
// copy whatever they keep: senders reuse their packets once Transfer
// returns.
type Observer interface {
	Observe(at sim.Time, p *Packet)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(at sim.Time, p *Packet)

// Observe implements Observer.
func (f ObserverFunc) Observe(at sim.Time, p *Packet) { f(at, p) }

// Tamperer can modify, drop, or replace packets in flight. Returning nil
// drops the packet. Returning a different packet substitutes it. It
// modifies a copy, never the sender's packet, and copies whatever it keeps
// (a replay source, say): senders reuse their packets once Transfer
// returns.
type Tamperer interface {
	Tamper(at sim.Time, p *Packet) *Packet
}

// FaultInjector models non-adversarial transient faults on the link: it
// returns the packet as delivered (nil when lost, a modified copy when
// corrupted) and any extra delivery delay from a transient channel stall.
// Faults apply after the tamperer — they strike the final wire signal.
type FaultInjector interface {
	Inject(at sim.Time, p *Packet) (out *Packet, delay sim.Time)
}

// ChannelStats aggregates per-channel traffic counters.
type ChannelStats struct {
	Packets        uint64
	DummyPackets   uint64
	ControlPackets uint64 // NACK/resync control traffic
	Bytes          uint64
	ReqBusy        sim.Time
	RespBusy       sim.Time
}

// Config describes the physical link.
type Config struct {
	Channels int
	// BandwidthGBps is per-channel, per-direction bandwidth. Table 2: 12.8.
	BandwidthGBps float64
	// PropagationDelay is the wire flight time added to every transfer.
	PropagationDelay sim.Time
	// Metrics, when non-nil, receives per-channel traffic counters and
	// occupancy under the "bus.chN" scopes. Nil disables with near-zero
	// hot-path cost.
	Metrics *metrics.Registry
	// Trace, when non-nil, records one span per packet leg (link wait +
	// serialization/propagation) on the "req-link"/"resp-link" tracks of
	// the channel's trace process. Nil disables.
	Trace *trace.Recorder
}

// DefaultConfig matches Table 2 of the paper.
func DefaultConfig(channels int) Config {
	return Config{
		Channels:         channels,
		BandwidthGBps:    12.8,
		PropagationDelay: 1 * sim.Nanosecond,
	}
}

// chanMetrics holds one channel's observability instruments. The zero
// value (all nil) is the disabled state: every update is a no-op.
type chanMetrics struct {
	cmdPackets     *metrics.Counter
	readPackets    *metrics.Counter
	writePackets   *metrics.Counter
	dummyPackets   *metrics.Counter
	controlPackets *metrics.Counter
	bytes          *metrics.Counter
	reqBusyPS      *metrics.Counter // serialization time, request direction (ps)
	respBusyPS     *metrics.Counter // serialization time, reply direction (ps)
}

// Bus is the set of memory channels.
type Bus struct {
	cfg       Config
	req       []*sim.Resource // per-channel request direction
	resp      []*sim.Resource // per-channel reply direction
	stats     []ChannelStats
	met       []chanMetrics
	observers []Observer
	tamperer  Tamperer
	faults    FaultInjector
	tr        busTrace
	psPerByte float64
}

// busTrace is the bus's recorder with its track, span-name, and label IDs
// resolved once at construction.
type busTrace struct {
	rec         *trace.Recorder
	link        [2]trace.TrackID // indexed by Direction: req-link, resp-link
	wait, stall trace.NameID
	legs        [2][len(legNames)]trace.NameID // [dummy][cmd | data<<1 | mac<<2]
	control     [len(controlNames)]trace.NameID
	types       [Write + 1]trace.LabelID // ReqType.String() by type
}

func newBusTrace(rec *trace.Recorder) busTrace {
	if rec == nil {
		return busTrace{}
	}
	bt := busTrace{
		rec:   rec,
		link:  [2]trace.TrackID{rec.Track("req-link"), rec.Track("resp-link")},
		wait:  rec.Name(names.SpanLinkWait),
		stall: rec.Name(names.SpanFaultStall),
	}
	for d := range bt.legs {
		for i := range bt.legs[d] {
			bt.legs[d][i] = rec.Name(dummyLegNames[d][i])
		}
	}
	for k := range bt.control {
		bt.control[k] = rec.Name(controlNames[k])
	}
	for t := range bt.types {
		bt.types[t] = rec.Label(ReqType(t).String())
	}
	return bt
}

// legName returns the registered span name of a packet's wire composition:
// which legs (cmd, data, mac) it carries and whether it is a dummy.
func (bt *busTrace) legName(p *Packet) trace.NameID {
	if p.Control != ControlNone {
		return bt.control[p.Control]
	}
	return bt.legs[b2i(p.IsDummy)][legIndex(p)]
}

// typeLabel returns the registered ReqType.String() of a packet.
func (bt *busTrace) typeLabel(t ReqType) trace.LabelID {
	if int(t) < len(bt.types) {
		return bt.types[t]
	}
	return bt.rec.Label(t.String())
}

// New builds a bus.
func New(cfg Config) *Bus {
	if cfg.Channels <= 0 {
		panic("bus: need at least one channel")
	}
	if cfg.BandwidthGBps <= 0 {
		panic("bus: non-positive bandwidth")
	}
	b := &Bus{
		cfg:       cfg,
		req:       make([]*sim.Resource, cfg.Channels),
		resp:      make([]*sim.Resource, cfg.Channels),
		stats:     make([]ChannelStats, cfg.Channels),
		tr:        newBusTrace(cfg.Trace),
		psPerByte: 1000.0 / cfg.BandwidthGBps, // ps per byte at GB/s
	}
	b.met = make([]chanMetrics, cfg.Channels)
	for i := 0; i < cfg.Channels; i++ {
		b.req[i] = sim.NewResource(fmt.Sprintf("ch%d-req", i))
		b.resp[i] = sim.NewResource(fmt.Sprintf("ch%d-resp", i))
		if sc := cfg.Metrics.Scope(names.PerChannel(names.ScopeBus, i)); sc != nil {
			b.met[i] = chanMetrics{
				cmdPackets:     sc.Counter(names.BusCmdPackets),
				readPackets:    sc.Counter(names.BusReadPackets),
				writePackets:   sc.Counter(names.BusWritePackets),
				dummyPackets:   sc.Counter(names.BusDummyPackets),
				controlPackets: sc.Counter(names.BusControlPackets),
				bytes:          sc.Counter(names.BusBytes),
				reqBusyPS:      sc.Counter(names.BusReqBusyPS),
				respBusyPS:     sc.Counter(names.BusRespBusyPS),
			}
		}
	}
	return b
}

// Channels returns the channel count.
func (b *Bus) Channels() int { return b.cfg.Channels }

// Config returns the link configuration.
func (b *Bus) Config() Config { return b.cfg }

// AttachObserver adds a passive tap on all channels.
func (b *Bus) AttachObserver(o Observer) { b.observers = append(b.observers, o) }

// SetTamperer installs an active attacker (nil to remove).
func (b *Bus) SetTamperer(t Tamperer) { b.tamperer = t }

// SetFaultInjector installs a transient-fault model (nil to remove). It
// applies after the tamperer, to the signal actually on the wire.
func (b *Bus) SetFaultInjector(f FaultInjector) { b.faults = f }

// Intercepted reports whether anything can see or alter a packet in flight:
// an observer, a tamperer, or a fault injector. When it is false, Transfer
// delivers the sender's own packet untouched, so fields only an intercept
// point reads (CmdCipher, MAC) never leave the sender.
func (b *Bus) Intercepted() bool {
	return len(b.observers) > 0 || b.tamperer != nil || b.faults != nil
}

// TransferTime returns the link occupancy of n bytes.
func (b *Bus) TransferTime(n int) sim.Time {
	return sim.Time(float64(n)*b.psPerByte + 0.5)
}

// Transfer sends a packet, modelling serialization on the per-channel,
// per-direction link. It returns the delivery time and the packet as
// received (after any tampering); delivered is nil if the packet was
// dropped in flight.
func (b *Bus) Transfer(at sim.Time, p *Packet) (arrive sim.Time, delivered *Packet) {
	if p.Channel < 0 || p.Channel >= b.cfg.Channels {
		panic(fmt.Sprintf("bus: packet on channel %d of %d", p.Channel, b.cfg.Channels))
	}
	res := b.req[p.Channel]
	if p.Dir == MemToProc {
		res = b.resp[p.Channel]
	}
	hold := b.TransferTime(p.WireBytes())
	start := res.Acquire(at, hold)

	st := &b.stats[p.Channel]
	st.Packets++
	st.Bytes += uint64(p.WireBytes())
	if p.IsDummy {
		st.DummyPackets++
	}
	if p.Control != ControlNone {
		st.ControlPackets++
	}
	if p.Dir == ProcToMem {
		st.ReqBusy += hold
	} else {
		st.RespBusy += hold
	}

	m := &b.met[p.Channel]
	m.bytes.Add(uint64(p.WireBytes()))
	if p.HasCmd {
		m.cmdPackets.Inc()
	}
	if p.IsDummy {
		m.dummyPackets.Inc()
	}
	switch {
	case p.Control != ControlNone:
		m.controlPackets.Inc()
	case p.Type == Write:
		m.writePackets.Inc()
	default:
		m.readPackets.Inc()
	}
	if p.Dir == ProcToMem {
		m.reqBusyPS.Add(uint64(hold))
	} else {
		m.respBusyPS.Add(uint64(hold))
	}

	if bt := &b.tr; bt.rec != nil {
		pid := trace.ChannelPID(p.Channel)
		link := bt.link[p.Dir]
		if start > at {
			bt.rec.Span(pid, link, trace.CatQueue, bt.wait, at, start)
		}
		bt.rec.Span(pid, link, trace.CatBus, bt.legName(p), start,
			start+hold+b.cfg.PropagationDelay,
			trace.Int(trace.KeyBytes, int64(p.WireBytes())), trace.Label(trace.KeyType, bt.typeLabel(p.Type)),
			trace.Bool(trace.KeyDummy, p.IsDummy), trace.Uint(trace.KeySeq, p.Seq))
	}

	for _, o := range b.observers {
		o.Observe(start, p)
	}

	out := p
	if b.tamperer != nil {
		out = b.tamperer.Tamper(start, p)
	}
	arrive = start + hold + b.cfg.PropagationDelay
	if b.faults != nil && out != nil {
		var stall sim.Time
		out, stall = b.faults.Inject(start, out)
		if stall > 0 {
			if bt := &b.tr; bt.rec != nil {
				bt.rec.Span(trace.ChannelPID(p.Channel), bt.link[p.Dir], trace.CatBus,
					bt.stall, arrive, arrive+stall)
			}
			arrive += stall
		}
	}
	return arrive, out
}

// legNames maps a packet's wire composition — bit 0 cmd, bit 1 data,
// bit 2 mac — to its registered span name.
var legNames = [8]names.Name{
	names.LegNone, names.LegCmd, names.LegData, names.LegCmdData,
	names.LegMAC, names.LegCmdMAC, names.LegDataMAC, names.LegCmdDataMAC,
}

// dummyLegNames is legNames for real ([0]) and dummy ([1]) packets, so the
// dummy suffix is derived once rather than per traced packet.
var dummyLegNames = func() (t [2][len(legNames)]names.Name) {
	for i, n := range legNames {
		t[0][i], t[1][i] = n, names.Dummy(n)
	}
	return t
}()

// controlNames maps ControlKind to its registered span name.
var controlNames = [...]names.Name{
	ControlNone:       names.ControlNone,
	ControlNACK:       names.ControlNACK,
	ControlResyncReq:  names.ControlResyncReq,
	ControlResyncResp: names.ControlResyncResp,
}

// legIndex encodes a packet's wire composition as a legNames index.
func legIndex(p *Packet) int {
	return b2i(p.HasCmd) | b2i(p.Data != nil)<<1 | b2i(p.HasMAC)<<2
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// IdleAt reports whether a channel's request direction is idle at time t;
// the ObfusMem OPT inter-channel policy (Section 3.4) uses this to decide
// where dummy requests are needed.
func (b *Bus) IdleAt(channel int, t sim.Time) bool {
	return b.req[channel].IdleAt(t)
}

// Stats returns a copy of the per-channel counters.
func (b *Bus) Stats() []ChannelStats {
	out := make([]ChannelStats, len(b.stats))
	copy(out, b.stats)
	return out
}

// TotalBytes sums traffic over all channels.
func (b *Bus) TotalBytes() uint64 {
	var n uint64
	for i := range b.stats {
		n += b.stats[i].Bytes
	}
	return n
}

// Utilization returns request-direction utilization of one channel over
// [0, now].
func (b *Bus) Utilization(channel int, now sim.Time) float64 {
	return b.req[channel].Utilization(now)
}

// Reset clears occupancy and counters but keeps observers, tamperers, and
// fault injectors (an injector holds its own random stream; reset it
// separately to replay an identical fault sequence).
func (b *Bus) Reset() {
	for i := range b.req {
		b.req[i].Reset()
		b.resp[i].Reset()
		b.stats[i] = ChannelStats{}
	}
}
