package obfus

import (
	"fmt"

	"obfusmem/internal/aes"
	"obfusmem/internal/bus"
	"obfusmem/internal/cache"
	"obfusmem/internal/keys"
	"obfusmem/internal/md5sim"
	"obfusmem/internal/memctl"
	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
	"obfusmem/internal/xrand"
)

// macSlackBucketsNS buckets the MAC/encrypt overlap slack: how much later
// than encryption-complete a request could actually issue because of the
// residual (mispredicted) MAC latency. Section 3.5's anticipation is
// working when mass sits in the lowest buckets.
var macSlackBucketsNS = []float64{0.5, 1, 2, 4, 8, 16, 32, 64}

// recoveryLatencyBucketsNS buckets the time from first failure detection to
// successful recovery of a request leg (backoff + resync handshake +
// retransmission, possibly iterated).
var recoveryLatencyBucketsNS = []float64{100, 250, 500, 1000, 2500, 5000, 10000, 25000}

// ctrlMetrics is the controller's observability instrument set; the zero
// value is the disabled state.
type ctrlMetrics struct {
	realReads         *metrics.Counter
	realWrites        *metrics.Counter
	dummyReads        *metrics.Counter
	dummyWrites       *metrics.Counter
	interChannelPairs *metrics.Counter
	substitutedPairs  *metrics.Counter
	droppedAtMemory   *metrics.Counter
	idleEpochFills    *metrics.Counter
	macsComputed      *metrics.Counter
	tamperDetected    *metrics.Counter
	retransmits       *metrics.Counter
	nacksSent         *metrics.Counter
	resyncs           *metrics.Counter
	recovered         *metrics.Counter
	quarantines       *metrics.Counter
	macSlackNS        *metrics.Histogram
	recoveryNS        *metrics.Histogram
}

func newCtrlMetrics(r *metrics.Registry) ctrlMetrics {
	sc := r.Scope(names.ScopeObfus)
	if sc == nil {
		return ctrlMetrics{}
	}
	return ctrlMetrics{
		realReads:         sc.Counter(names.ObfusRealReads),
		realWrites:        sc.Counter(names.ObfusRealWrites),
		dummyReads:        sc.Counter(names.ObfusDummyReads),
		dummyWrites:       sc.Counter(names.ObfusDummyWrites),
		interChannelPairs: sc.Counter(names.ObfusInterChannelPairs),
		substitutedPairs:  sc.Counter(names.ObfusSubstitutedPairs),
		droppedAtMemory:   sc.Counter(names.ObfusDroppedAtMemory),
		idleEpochFills:    sc.Counter(names.ObfusIdleEpochFills),
		macsComputed:      sc.Counter(names.ObfusMACsComputed),
		tamperDetected:    sc.Counter(names.ObfusTamperDetected),
		retransmits:       sc.Counter(names.ObfusRetransmits),
		nacksSent:         sc.Counter(names.ObfusNACKsSent),
		resyncs:           sc.Counter(names.ObfusResyncs),
		recovered:         sc.Counter(names.ObfusRecovered),
		quarantines:       sc.Counter(names.ObfusQuarantines),
		macSlackNS:        sc.Histogram(names.ObfusMACSlackNS, macSlackBucketsNS),
		recoveryNS:        sc.Histogram(names.ObfusRecoveryNS, recoveryLatencyBucketsNS),
	}
}

// obfusTrace is the controller's recorder with its track and span-name IDs
// resolved once at construction.
type obfusTrace struct {
	rec                                        *trace.Recorder
	frontend, procAES, procMD5, memAES         trace.TrackID
	recovery                                   trace.TrackID
	frontendWait, frontendSpan, substituteReal trace.NameID
	encryptPads, macRequest, memDecode         trace.NameID
	replyEncrypt, replyDecode, tamperDetected  trace.NameID
	nack, retryTimer, resyncTimer, ctrResync   trace.NameID
	retryBackoff, recovered, quarantine        trace.NameID
}

func newObfusTrace(rec *trace.Recorder) obfusTrace {
	if rec == nil {
		return obfusTrace{}
	}
	return obfusTrace{
		rec:            rec,
		frontend:       rec.Track("frontend"),
		procAES:        rec.Track("proc-aes"),
		procMD5:        rec.Track("proc-md5"),
		memAES:         rec.Track("mem-aes"),
		recovery:       rec.Track("recovery"),
		frontendWait:   rec.Name(names.SpanFrontendWait),
		frontendSpan:   rec.Name(names.SpanFrontend),
		substituteReal: rec.Name(names.SpanSubstituteReal),
		encryptPads:    rec.Name(names.SpanEncryptPads),
		macRequest:     rec.Name(names.SpanMACRequest),
		memDecode:      rec.Name(names.SpanMemDecode),
		replyEncrypt:   rec.Name(names.SpanReplyEncrypt),
		replyDecode:    rec.Name(names.SpanReplyDecode),
		tamperDetected: rec.Name(names.SpanTamperDetected),
		nack:           rec.Name(names.SpanNACK),
		retryTimer:     rec.Name(names.SpanRetryTimer),
		resyncTimer:    rec.Name(names.SpanResyncTimer),
		ctrResync:      rec.Name(names.SpanCtrResync),
		retryBackoff:   rec.Name(names.SpanRetryBackoff),
		recovered:      rec.Name(names.SpanRecovered),
		quarantine:     rec.Name(names.SpanQuarantine),
	}
}

// observeMACSlack records how far the residual MAC latency pushed a
// request's issue past its encryption-ready time (zero when fully
// overlapped per Observation 4).
func (c *Controller) observeMACSlack(encReady, sendReady sim.Time) {
	if c.met.macSlackNS == nil {
		return
	}
	c.met.macSlackNS.Observe((sendReady - encReady).Float64Nanos())
}

// acquireFrontEnd reserves the shared processor-side front end for one
// request pair, tracing the wait (queueing behind other pairs, including
// injected dummies) and the occupancy, and returns the release time.
func (c *Controller) acquireFrontEnd(at sim.Time) sim.Time {
	start := c.frontEnd.Acquire(at, FrontEndTime)
	if c.tr.rec != nil {
		if start > at {
			c.tr.rec.Span(trace.PIDCPU, c.tr.frontend, trace.CatQueue, c.tr.frontendWait, at, start)
		}
		c.tr.rec.Span(trace.PIDCPU, c.tr.frontend, trace.CatOther, c.tr.frontendSpan, start, start+FrontEndTime)
	}
	return start + FrontEndTime
}

// requestCrypto runs request-path pad pre-generation and MAC anticipation
// for one issue, tracing both legs, and returns when encryption completes
// and when the request may go on the wire. secondMAC issues the digest for
// the pair's second half; observe feeds the MAC/encrypt overlap-slack
// histogram (real requests only, matching the metrics discipline).
func (c *Controller) requestCrypto(cs *chanState, ch int, at sim.Time, pads int, secondMAC, observe bool) (encReady, sendReady sim.Time) {
	encReady = pregenReady(cs.procReqEng, at, pads)
	sendReady = macRequestReady(cs.procMAC, c.cfg.MAC, at, encReady)
	if observe {
		c.observeMACSlack(encReady, sendReady)
	}
	if secondMAC && c.cfg.MAC != MACNone {
		macRequestReady(cs.procMAC, c.cfg.MAC, at, encReady)
	}
	if c.tr.rec != nil {
		pid := trace.ChannelPID(ch)
		c.tr.rec.Span(pid, c.tr.procAES, trace.CatCrypto, c.tr.encryptPads, at, encReady,
			trace.Int(trace.KeyPads, int64(pads)))
		if c.cfg.MAC != MACNone {
			c.tr.rec.Span(pid, c.tr.procMD5, trace.CatCrypto, c.tr.macRequest, at, sendReady,
				trace.NS(trace.KeySlackNS, sendReady-encReady))
		}
	}
	return encReady, sendReady
}

// XORLatency is the only serial encryption cost on the critical path when
// pads are pre-generated (Fig 2/3): one core cycle for the final XOR.
const XORLatency = cache.CPUCycle

// writeQueueCap bounds the per-channel pending-write buffer used by the
// substitute-real optimisation; beyond it the oldest write drains with a
// dummy read, like a real write buffer under pressure.
const writeQueueCap = 8

// FrontEndTime is the occupancy of the shared processor-side ObfusMem
// front end (session-key lookup, request assembly, dummy generation —
// Fig 3 steps 1a-1d) per request pair. The front end is one unit shared by
// all channels, and to keep the real channel indistinguishable the dummy
// pairs of the inter-channel policy issue *before* the real pair, so every
// injected pair delays the real request by one front-end slot — the cost
// that makes the UNOPT policy increasingly expensive as channels grow
// (Observation 6).
const FrontEndTime = 6 * sim.Nanosecond

// MACExposed is the residual request-path MAC latency not hidden by the
// predictor-based anticipation of Section 3.5 (the tail of mispredicted
// requests).
const MACExposed = 8 * sim.Nanosecond

// SerDesLatency is the packetisation cost of the smart-memory interface at
// each chip crossing: serialise/deserialise, framing, and CRC of the
// encrypted request packets (ObfusMem requires a packet interface; the
// unprotected DDR baseline drives address pins directly).
const SerDesLatency = 4 * sim.Nanosecond

// OPTWindow is the observation granularity the OPT policy assumes: a
// channel whose request link carried any packet within this window is
// already indistinguishable from active, so no dummy is needed there
// (Observation 3: "when memory channel bandwidth utilization is high, few
// dummy requests are needed").
const OPTWindow = 100 * sim.Nanosecond

// Stats aggregates controller activity.
type Stats struct {
	RealReads         uint64
	RealWrites        uint64
	DummyReads        uint64
	DummyWrites       uint64
	InterChannelPairs uint64
	SubstitutedPairs  uint64
	DroppedAtMemory   uint64 // fixed-address dummies discarded (Obs. 2)
	DummyPCMWrites    uint64 // original/random designs: dummies that hit PCM
	DummyPCMReads     uint64
	MACsComputed      uint64
	TamperDetected    uint64
	DecodeMismatches  uint64 // decoded (type,addr) != ground truth (desync)
	RequestsLost      uint64 // dropped in flight, never reached memory
	IdleEpochFills    uint64 // timing-oblivious: dummy pairs on idle epochs

	// Fault-tolerant protocol activity (zero unless Recovery.Enabled).
	Retransmits    uint64 // request legs re-sent after a failure
	NACKsSent      uint64 // memory-side rejection notices issued
	NACKsLost      uint64 // NACKs themselves lost/corrupted (timer fallback)
	Resyncs        uint64 // successful counter-resync handshakes
	ResyncFailures uint64 // handshake legs lost/corrupted (retried)
	Recovered      uint64 // failed request legs completed by retransmission
	Quarantines    uint64 // channels taken fail-stop after retry exhaustion

	// Failure accounting. FailedLegs counts real (non-dummy) request legs
	// that finally failed; QuarantinedRequests counts the subset refused
	// because their channel was quarantined. With recovery on, every final
	// failure is a quarantine refusal, so the two are equal and nothing is
	// silently lost; without recovery the difference is the silently-failed
	// count the protocol exists to eliminate.
	FailedLegs          uint64
	QuarantinedRequests uint64
}

// UnaccountedFailures returns the number of real request legs that failed
// without an explicit quarantine event to account for them. The recovery
// protocol's invariant is that this is zero.
func (s Stats) UnaccountedFailures() uint64 {
	return s.FailedLegs - s.QuarantinedRequests
}

type pendingWrite struct {
	at   sim.Time
	addr uint64
	// atRestReady is when the ciphertext-at-rest is available (from the
	// memory-encryption engine); the bus transfer cannot start earlier.
	atRestReady sim.Time
	// data, when non-nil, is the at-rest ciphertext block to carry through
	// the value-level datapath.
	data *memctl.Block
}

// chanState is one channel's cryptographic endpoints: an AES engine and an
// MD5 unit per side, and the synchronised session counters.
type chanState struct {
	key [16]byte
	// Each side has dedicated engines per traffic direction so the
	// request stream and the reply stream each see time-monotonic issue
	// order (they are independent pipelines in hardware, and modelling
	// them as one resource would serialise a request behind the
	// *previous* request's reply decode).
	procReqEng  *aes.Engine  // request-path pads (cmd + dummy data)
	procRespEng *aes.Engine  // reply transit decryption
	memReqEng   *aes.Engine  // request decode
	memRespEng  *aes.Engine  // reply transit encryption
	procMAC     *md5sim.Unit // request-path MAC generation
	procVerMAC  *md5sim.Unit // reply verification digests
	memMAC      *md5sim.Unit

	reqCtr      uint64 // proc->mem pad counter (proc's view)
	memReqCtr   uint64 // memory's view; diverges if packets are dropped
	memParity   int    // which half of the current pair memory expects next
	respCtr     uint64 // mem->proc pad counter
	procRespCtr uint64

	dummyAddr uint64 // the reserved fixed dummy block on this module
	// writes is the substitute-real pending-write queue, kept as a
	// compacting ring (writeHead indexes the oldest entry) so steady-state
	// push/pop traffic reuses the backing array instead of reallocating.
	writes    []pendingWrite
	writeHead int
	// sealBuf and replyBuf are the channel's transit-encryption scratch
	// buffers for value-carrying payloads. At most one sealed request
	// payload and one sealed reply are in flight per pair (a pair has a
	// single data-bearing half, and the memory side copies the bytes out
	// before the next pair issues), so one buffer per direction suffices.
	sealBuf  [bus.DataBytes]byte
	replyBuf [bus.DataBytes]byte
	// lastReqWire is when the channel's request link last carried a
	// packet; the OPT policy treats a channel as covered while that
	// activity is within the observation window.
	lastReqWire sim.Time
	// lastEpoch is the most recent issue slot under timing-oblivious
	// operation.
	lastEpoch sim.Time
	// quarantined marks the channel fail-stopped after retry exhaustion;
	// all further requests on it are refused (graceful degradation).
	quarantined bool
}

// Controller is the paired processor-side / memory-side ObfusMem logic over
// all channels.
type Controller struct {
	cfg      Config
	bus      *bus.Bus
	mem      *memctl.Controller
	table    *keys.SessionKeyTable
	chans    []*chanState
	rng      *xrand.Rand
	stats    Stats
	met      ctrlMetrics
	tr       obfusTrace
	seq      uint64
	frontEnd *sim.Resource
	// lastReadData holds the most recent value-carrying read result (the
	// flows are synchronous, so this is just plumbing, not shared state).
	lastReadData memctl.Block
	// lastReplyLost distinguishes a reply dropped in flight (detected only
	// by timer) from one rejected on arrival (detected at decode); same
	// synchronous plumbing as lastReadData.
	lastReplyLost bool
	// events records quarantine decisions for the typed error surface.
	events []QuarantineEvent
	// memCapacity bounds random dummy addresses.
	memCapacity uint64

	// pktArena recycles request/reply/control packet headers. The flows
	// are synchronous and every interception point on the bus (observers,
	// tamperers, fault injectors) copies rather than retains, so a packet
	// is dead once the entry-point call that built it returns; pktUsed
	// rewinds at each public entry point (Read, Write, ReadData,
	// WriteData, Drain) and the arena stabilises at the high-water mark.
	pktArena []*bus.Packet
	pktUsed  int
	// zeroData is the shared all-zero payload for timing-only transfers
	// (contents elided). Nothing on the datapath mutates packet data in
	// place — fault injection and tampering corrupt copies — so every
	// such packet can alias this one buffer.
	zeroData [bus.DataBytes]byte
}

// resetArena rewinds the packet arena; called on entry to each public flow.
func (c *Controller) resetArena() { c.pktUsed = 0 }

// newPacket returns a zeroed packet from the arena, growing it only until
// the per-call high-water mark is reached.
func (c *Controller) newPacket() *bus.Packet {
	if c.pktUsed == len(c.pktArena) {
		c.pktArena = append(c.pktArena, new(bus.Packet))
	}
	p := c.pktArena[c.pktUsed]
	c.pktUsed++
	*p = bus.Packet{}
	return p
}

// queuedWrites returns the substitute-real queue depth.
func (cs *chanState) queuedWrites() int { return len(cs.writes) - cs.writeHead }

// pushWrite appends to the pending-write ring, compacting consumed head
// space in place before the backing array would have to grow.
func (cs *chanState) pushWrite(w pendingWrite) {
	if cs.writeHead > 0 && len(cs.writes) == cap(cs.writes) {
		n := copy(cs.writes, cs.writes[cs.writeHead:])
		cs.writes = cs.writes[:n]
		cs.writeHead = 0
	}
	cs.writes = append(cs.writes, w)
}

// popWrite removes and returns the oldest pending write.
func (cs *chanState) popWrite() pendingWrite {
	w := cs.writes[cs.writeHead]
	cs.writes[cs.writeHead] = pendingWrite{}
	cs.writeHead++
	if cs.writeHead == len(cs.writes) {
		cs.writes = cs.writes[:0]
		cs.writeHead = 0
	}
	return w
}

// New wires a controller. The session key table must hold one key per bus
// channel (from the boot-time establishment in the keys package).
func New(cfg Config, b *bus.Bus, mem *memctl.Controller, table *keys.SessionKeyTable, rng *xrand.Rand) *Controller {
	if b.Channels() != table.Channels() {
		panic("obfus: bus and key table disagree on channel count")
	}
	c := &Controller{
		cfg:         cfg,
		bus:         b,
		mem:         mem,
		table:       table,
		rng:         rng,
		met:         newCtrlMetrics(cfg.Metrics),
		tr:          newObfusTrace(cfg.Trace),
		frontEnd:    sim.NewResource("obfus-frontend"),
		memCapacity: 8 << 30,
	}
	for ch := 0; ch < b.Channels(); ch++ {
		key := table.KeyFor(ch)
		cipher, err := aes.NewCipher(key[:])
		if err != nil {
			panic("obfus: bad session key: " + err.Error())
		}
		// Both sides derive engines from the same session key; counters
		// start synchronised at zero.
		memCipher, _ := aes.NewCipher(key[:])
		memCipher2, _ := aes.NewCipher(key[:])
		procCipher2, _ := aes.NewCipher(key[:])
		// Each channel direction needs pad throughput matching the
		// 12.8 GB/s link (one 16-byte pad per 1.25 ns); a single
		// 4 ns-cycle AES engine sustains a quarter of that, so each
		// direction on each side provisions four interleaved lanes
		// (8 x 0.204 mm² per side — still negligible area).
		const laneInterval = aes.EngineCycle / 4
		mk := func(name string, c *aes.Cipher) *aes.Engine {
			return aes.NewEngineTimed(name, c, aes.EngineLatency, laneInterval)
		}
		cs := &chanState{
			key:         key,
			procReqEng:  mk(fmt.Sprintf("proc-req-aes%d", ch), cipher),
			procRespEng: mk(fmt.Sprintf("proc-resp-aes%d", ch), procCipher2),
			memReqEng:   mk(fmt.Sprintf("mem-req-aes%d", ch), memCipher),
			memRespEng:  mk(fmt.Sprintf("mem-resp-aes%d", ch), memCipher2),
			procMAC:     md5sim.NewUnit(fmt.Sprintf("proc-md5%d", ch)),
			procVerMAC:  md5sim.NewUnit(fmt.Sprintf("proc-ver-md5%d", ch)),
			memMAC:      md5sim.NewUnit(fmt.Sprintf("mem-md5%d", ch)),
		}
		// Reserve one block at the top of this channel's address space as
		// the fixed dummy target (Observation 2); it must decode to this
		// channel under the controller's interleaving.
		for a := c.memCapacity - uint64(b.Channels())*4096; ; a += 64 {
			if mem.Mapper().ChannelOf(a) == ch {
				cs.dummyAddr = a
				break
			}
		}
		c.chans = append(c.chans, cs)
	}
	return c
}

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Config returns the design point.
func (c *Controller) Config() Config { return c.cfg }

// ChannelOf exposes the address-to-channel routing.
func (c *Controller) ChannelOf(addr uint64) int { return c.mem.Mapper().ChannelOf(addr) }

// pregenReady models counter-mode pad pre-generation: the pads for the next
// counters can be produced before the request exists, so pipeline latency
// is hidden; sustained throughput is not. It returns when the XOR output of
// n pads issued logically at `at` is available.
func pregenReady(e *aes.Engine, at sim.Time, n int) sim.Time {
	done := e.IssueOnly(at, n)
	idealDone := at + e.Latency() + sim.Time(n-1)*e.Interval()
	backlog := done - idealDone
	return at + backlog + XORLatency
}

// macRequestReady models the request-path MAC. Under encrypt-and-MAC the
// components (type, address, counter) are anticipated by stream/LRU
// predictors (Section 3.5), hiding the digest latency; under
// encrypt-then-MAC the digest must follow encryption completion.
func macRequestReady(u *md5sim.Unit, mode MACMode, at, encReady sim.Time) sim.Time {
	switch mode {
	case MACNone:
		return encReady
	case EncryptAndMAC:
		done := u.Issue(at)
		idealDone := at + md5sim.UnitLatency
		backlog := done - idealDone
		// The stream/LRU anticipation of Section 3.5 hides most but not
		// all of the digest latency: mispredicted requests expose a
		// residual tail.
		r := at + backlog + MACExposed
		if encReady > r {
			r = encReady
		}
		return r
	case EncryptThenMAC:
		return u.Issue(encReady)
	default:
		panic("obfus: unknown MAC mode")
	}
}

// macReplyReady models the reply-path MAC at the memory side. Under
// encrypt-and-MAC the tag covers (type|address|counter) — all known at
// request-decode time — so it is computed in parallel with the PCM access
// and *trails* the data on the wire; the processor consumes the reply
// speculatively and aborts on a late mismatch (the same lazy-verification
// discipline the paper applies to Merkle checks). It therefore adds no
// latency, only MD5 throughput and 8 wire bytes. Under encrypt-then-MAC
// the digest must cover the encrypted reply and serialises after it.
func macReplyReady(u *md5sim.Unit, mode MACMode, decodeAt, dataReady sim.Time) sim.Time {
	switch mode {
	case MACNone:
		return dataReady
	case EncryptAndMAC:
		u.Issue(decodeAt)
		return dataReady
	case EncryptThenMAC:
		return u.Issue(dataReady)
	default:
		panic("obfus: unknown MAC mode")
	}
}

func (c *Controller) dummyAddrFor(cs *chanState, realAddr uint64, ch int) uint64 {
	switch c.cfg.Dummy {
	case FixedAddress:
		return cs.dummyAddr
	case OriginalAddress:
		return realAddr
	default: // RandomAddress: uniform block on the same channel
		for {
			a := (c.rng.Uint64() % c.memCapacity) &^ 63
			if c.mem.Mapper().ChannelOf(a) == ch {
				return a
			}
		}
	}
}

// sealPayload transit-encrypts a value-carrying payload (nil passthrough).
//
//obfus:public ciphertext after AES-CTR transit encryption is computationally independent of the payload
func (c *Controller) sealPayload(cs *chanState, ch int, padBase uint64, data *memctl.Block) []byte {
	if data == nil {
		return nil
	}
	return c.transitSealRequest(cs, ch, padBase, data)
}

// sendPacket builds, MACs, and transfers one request packet; it returns
// the arrival time and the packet as delivered (nil if dropped in flight).
// readyAt is when the packet may first occupy the bus. The command
// ciphertext and MAC bytes are computed only when a bus intercept point can
// read them; otherwise the packet reaches memDecodeSlot untouched and they
// are rebuilt there only if it meets a counter mismatch. The wire size, the
// MAC count, and all timing are the same either way.
func (c *Controller) sendPacket(cs *chanState, ch int, readyAt sim.Time,
	t bus.ReqType, addr uint64, isDummy bool, withData bool, padCtr uint64, payload []byte) (sim.Time, *bus.Packet) {

	pkt := c.newPacket()
	pkt.Channel = ch
	pkt.Dir = bus.ProcToMem
	pkt.HasCmd = true
	pkt.Type = t
	pkt.Addr = addr
	pkt.IsDummy = isDummy
	pkt.Counter = padCtr
	pkt.Seq = c.seq
	c.seq++
	if withData {
		if payload != nil {
			pkt.Data = payload
		} else {
			pkt.Data = c.zeroData[:] // timing-only path: contents elided
		}
	}
	if c.cfg.MAC != MACNone {
		pkt.HasMAC = true
		c.stats.MACsComputed++
		c.met.macsComputed.Inc()
	}
	if c.bus.Intercepted() {
		c.sealRequest(cs, pkt)
	}
	arrive, delivered := c.bus.Transfer(readyAt, pkt)
	return arrive, delivered
}

// sealRequest fills a request packet's wire view from its ground truth:
// the command field encrypted under the processor-side pad at the packet's
// counter and, when the packet is tagged, its MAC.
func (c *Controller) sealRequest(cs *chanState, pkt *bus.Packet) {
	pad := cs.procReqEng.CTR().Pad(aes.IV{ID: uint64(pkt.Channel), Counter: pkt.Counter})
	pkt.CmdCipher = sealCmd(encodeCmd(pkt.Type, pkt.Addr), pad)
	if pkt.HasMAC {
		pkt.MAC = uint64(md5sim.Compute(byte(pkt.Type), pkt.Addr, pkt.Counter))
	}
}

// memSlot returns the pad counter the memory side uses for the next command
// it receives, following the pair schedule of Fig 3: the first command of a
// pair decodes at ctr, the second at ctr+1, and the pair consumes six
// counters (the other four covered the data pads). Dropped packets shift
// the schedule and desynchronise the sides — which is what makes deletion
// attacks detectable.
func (cs *chanState) memSlot(symmetric bool) uint64 {
	if symmetric {
		ctr := cs.memReqCtr
		cs.memReqCtr += 5
		return ctr
	}
	ctr := cs.memReqCtr + uint64(cs.memParity)
	if cs.memParity == 0 {
		cs.memParity = 1
	} else {
		cs.memParity = 0
		cs.memReqCtr += 6
	}
	return ctr
}

// memDecode models the memory side receiving a request packet: pad decode
// (pre-generated, XOR only), MAC verification, and counter advance. It
// returns the decoded command, the time decoding completed, and whether the
// request was accepted.
func (c *Controller) memDecode(cs *chanState, ch int, arrive sim.Time, delivered *bus.Packet) (t bus.ReqType, addr uint64, decodeDone sim.Time, ok bool) {
	if delivered == nil {
		// Dropped in flight: the memory never sees it, so its counter
		// does not advance and the two sides desynchronise.
		c.stats.RequestsLost++
		return 0, 0, arrive, false
	}
	return c.memDecodeSlot(cs, ch, arrive, delivered, cs.memSlot(c.cfg.Symmetric))
}

// memDecodeSlot is memDecode at an explicit pad counter; retransmissions
// use it after a resync handshake has agreed the slot out of band.
//
// With nothing intercepting the bus, delivered is the sender's packet,
// untouched and unsealed. At the sender's counter, opening it and checking
// its MAC would return its own type and address and accept, so that
// identity is taken directly; at any other counter the wire view is
// rebuilt first and the full path detects the desync as on a tapped bus.
func (c *Controller) memDecodeSlot(cs *chanState, ch int, arrive sim.Time, delivered *bus.Packet, ctr uint64) (t bus.ReqType, addr uint64, decodeDone sim.Time, ok bool) {
	decodeDone = pregenReady(cs.memReqEng, arrive, 1) + SerDesLatency
	if c.tr.rec != nil {
		c.tr.rec.Span(trace.ChannelPID(ch), c.tr.memAES, trace.CatCrypto, c.tr.memDecode,
			arrive, decodeDone, trace.Uint(trace.KeyCtr, ctr), trace.Bool(trace.KeyDummy, delivered.IsDummy))
	}
	if c.cfg.MAC != MACNone {
		cs.memMAC.Issue(arrive) // verification digest (off the PCM critical path)
	}
	if !c.bus.Intercepted() {
		if ctr == delivered.Counter {
			return delivered.Type, delivered.Addr, decodeDone, true
		}
		c.sealRequest(cs, delivered)
	}
	pad := cs.memReqEng.CTR().Pad(aes.IV{ID: uint64(ch), Counter: ctr})
	t, addr = openCmd(delivered.CmdCipher, pad)
	if c.cfg.MAC != MACNone {
		expect := uint64(md5sim.Compute(byte(t), addr, ctr))
		if expect != delivered.MAC {
			c.stats.TamperDetected++
			c.met.tamperDetected.Inc()
			c.tr.rec.Instant(trace.ChannelPID(ch), c.tr.memAES, c.tr.tamperDetected, decodeDone)
			return t, addr, decodeDone, false
		}
	} else if t != delivered.Type || addr != delivered.Addr {
		// Without a MAC the memory cannot *detect* the mismatch; we count
		// it from ground truth to quantify silent corruption.
		c.stats.DecodeMismatches++
		return t, addr, decodeDone, false
	}
	return t, addr, decodeDone, true
}

// reply sends a data reply (real ciphertext or dummy garbage) back to the
// processor; it returns the time plaintext-at-rest ciphertext is available
// processor-side, and whether the reply was delivered and authentic.
func (c *Controller) reply(cs *chanState, ch int, readyAt sim.Time, forDummy bool, reqAddr uint64, decodeAt sim.Time) (sim.Time, bool) {
	return c.replyData(cs, ch, readyAt, forDummy, reqAddr, decodeAt, false, nil)
}

// replyData is reply with an optional value-carrying payload (the stored
// block, already transit-encrypted by the memory side).
func (c *Controller) replyData(cs *chanState, ch int, readyAt sim.Time, forDummy bool, reqAddr uint64, decodeAt sim.Time, wantData bool, wire []byte) (sim.Time, bool) {
	pkt := c.newPacket()
	pkt.Channel = ch
	pkt.Dir = bus.MemToProc
	pkt.Data = c.zeroData[:]
	pkt.Type = bus.Read
	pkt.Addr = reqAddr
	pkt.IsDummy = forDummy
	if wire != nil {
		pkt.Data = wire
	}
	var sendReady sim.Time
	if forDummy {
		// Random garbage: no pads, no counter use; indistinguishable from
		// ciphertext on the wire.
		sendReady = readyAt
	} else {
		// Encrypt the (already at-rest-encrypted) data for bus transit
		// with 4 pre-generated pads (Observation 1).
		sendReady = pregenReady(cs.memRespEng, readyAt, 4)
		pkt.Counter = cs.respCtr
		cs.respCtr += 4
	}
	sealed := c.bus.Intercepted()
	if c.cfg.MAC != MACNone {
		pkt.HasMAC = true
		if sealed {
			pkt.MAC = uint64(md5sim.Compute(byte(bus.Read), reqAddr, pkt.Counter))
		}
		c.stats.MACsComputed++
		c.met.macsComputed.Inc()
		sendReady = macReplyReady(cs.memMAC, c.cfg.MAC, decodeAt, sendReady)
	}
	if c.tr.rec != nil && sendReady > readyAt {
		c.tr.rec.Span(trace.ChannelPID(ch), c.tr.memAES, trace.CatCrypto, c.tr.replyEncrypt,
			readyAt, sendReady, trace.Bool(trace.KeyDummy, forDummy))
	}
	arrive, delivered := c.bus.Transfer(sendReady, pkt)
	c.lastReplyLost = delivered == nil
	if delivered == nil {
		c.stats.RequestsLost++
		return arrive, false
	}
	if forDummy {
		return arrive, true
	}
	// Processor-side transit decryption (pre-generated pads) and MAC check.
	done := pregenReady(cs.procRespEng, arrive, 4) + SerDesLatency
	if c.tr.rec != nil {
		c.tr.rec.Span(trace.ChannelPID(ch), c.tr.procAES, trace.CatCrypto, c.tr.replyDecode,
			arrive, done)
	}
	ctr := cs.procRespCtr
	cs.procRespCtr += 4
	if wantData && delivered.Data != nil {
		c.lastReadData = c.transitOpenReply(cs, ch, ctr, delivered.Data)
	}
	if c.cfg.MAC != MACNone {
		cs.procVerMAC.Issue(arrive)
		if !sealed {
			// The sender's own packet: its tag verifies exactly when the
			// counters agree.
			if ctr == delivered.Counter {
				return done, true
			}
			delivered.MAC = uint64(md5sim.Compute(byte(bus.Read), delivered.Addr, delivered.Counter))
		}
		expect := uint64(md5sim.Compute(byte(bus.Read), delivered.Addr, ctr))
		if expect != delivered.MAC || ctr != delivered.Counter {
			c.stats.TamperDetected++
			c.met.tamperDetected.Inc()
			c.tr.rec.Instant(trace.PIDCPU, c.tr.procAES, c.tr.tamperDetected, done)
			return done, false
		}
	}
	return done, true
}
