package obfus

// The fault-tolerant bus protocol. The paper's Section 3.5 integrity scheme
// stops at *detection*: a MAC mismatch rejects the request and that is
// that. Real exposed buses (DDR4/DDR5) ship CRC-with-retry, so this file
// adds the recovery half: a rejected request leg triggers a NACK from the
// memory (or a retry-timer expiry when the packet — or its NACK — was lost
// outright), the processor backs off, re-aligns the per-channel CTR
// counters through an authenticated resync handshake, and retransmits with
// fresh pad counters. Retry exhaustion quarantines the channel: fail-stop
// with a typed error, never a silent loss.
//
// All control packets are command-sized (plus MAC), so on the wire they are
// indistinguishable from ordinary encrypted commands; the handshake is
// authenticated with the channel session key in every MAC mode — a rare
// control exchange can afford a tag even when the data path (MACNone)
// does not.

import (
	"fmt"
	"strings"

	"obfusmem/internal/bus"
	"obfusmem/internal/md5sim"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

// Recovery protocol defaults (used when the RecoveryConfig field is zero).
const (
	// DefaultRetryBudget bounds retransmission attempts per failed leg.
	DefaultRetryBudget = 4
	// DefaultRetryTimeout is the retransmit timer: the worst-case round
	// trip of the timing-oblivious analysis (Section 6.2) plus margin.
	DefaultRetryTimeout = 250 * sim.Nanosecond
	// DefaultRetryBackoff is the base pre-retry delay, doubled per attempt.
	DefaultRetryBackoff = 20 * sim.Nanosecond
)

// QuarantineEvent records one fail-stop decision: a channel taken out of
// service after exhausting its retry budget.
type QuarantineEvent struct {
	Channel  int
	At       sim.Time
	Attempts int
}

func (e QuarantineEvent) String() string {
	return fmt.Sprintf("channel %d quarantined at %s after %d attempts",
		e.Channel, e.At, e.Attempts)
}

// ChannelError is the typed error surfaced (through system and cmd/obfsim)
// when channels have been quarantined.
type ChannelError struct {
	Events []QuarantineEvent
}

func (e *ChannelError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "obfus: %d channel(s) quarantined:", len(e.Events))
	for _, ev := range e.Events {
		b.WriteString(" [" + ev.String() + "]")
	}
	return b.String()
}

// Err returns a *ChannelError when any channel has been quarantined, nil
// otherwise.
func (c *Controller) Err() error {
	if len(c.events) == 0 {
		return nil
	}
	return &ChannelError{Events: append([]QuarantineEvent(nil), c.events...)}
}

// QuarantineEvents returns a copy of the fail-stop record.
func (c *Controller) QuarantineEvents() []QuarantineEvent {
	return append([]QuarantineEvent(nil), c.events...)
}

// Quarantined reports whether a channel has been taken fail-stop.
func (c *Controller) Quarantined(ch int) bool { return c.chans[ch].quarantined }

func (c *Controller) recoveryOn() bool { return c.cfg.Recovery.Enabled }

func (c *Controller) retryBudget() int {
	if b := c.cfg.Recovery.RetryBudget; b > 0 {
		return b
	}
	return DefaultRetryBudget
}

func (c *Controller) retryTimeout() sim.Time {
	if t := c.cfg.Recovery.Timeout; t > 0 {
		return sim.Time(t)
	}
	return DefaultRetryTimeout
}

// retryBackoff returns the exponential pre-retry delay for the given
// (1-based) attempt.
func (c *Controller) retryBackoff(attempt int) sim.Time {
	base := DefaultRetryBackoff
	if b := c.cfg.Recovery.Backoff; b > 0 {
		base = sim.Time(b)
	}
	shift := uint(attempt - 1)
	if shift > 20 {
		shift = 20
	}
	return base << shift
}

// canRecover reports whether the recovery protocol can act on a rejected
// request: a drop is always detectable (the retry timer fires), but a
// corrupted command is only detectable when a MAC covers it — under
// MACNone the memory services the wrong address and nobody knows (the
// silent corruption DecodeMismatches quantifies from ground truth).
func (c *Controller) canRecover(delivered *bus.Packet) bool {
	if !c.recoveryOn() {
		return false
	}
	return delivered == nil || c.cfg.MAC != MACNone
}

// legFailed accounts one finally-failed real request leg. With recovery on,
// every such failure is a quarantine refusal (quarantined=true), keeping
// UnaccountedFailures at zero; dummy legs carry no payload and are not
// accounted.
func (c *Controller) legFailed(dummy, quarantined bool) {
	if dummy {
		return
	}
	c.stats.FailedLegs++
	if quarantined {
		c.stats.QuarantinedRequests++
	}
}

// controlPacket builds one command-sized protocol control packet. The
// field is filled with pseudo-ciphertext (control messages are encrypted
// like everything else) and always tagged: the handshake is authenticated
// in every MAC mode.
func (c *Controller) controlPacket(ch int, dir bus.Direction, kind bus.ControlKind) *bus.Packet {
	pkt := c.newPacket()
	pkt.Channel = ch
	pkt.Dir = dir
	pkt.HasCmd = true
	pkt.Control = kind
	pkt.Seq = c.seq
	c.rng.Bytes(pkt.CmdCipher[:])
	pkt.HasMAC = true
	pkt.MAC = uint64(md5sim.Compute(0xF0+byte(kind), uint64(ch), c.seq))
	c.seq++
	c.stats.MACsComputed++
	c.met.macsComputed.Inc()
	return pkt
}

// sendNACK models the memory-side rejection notice: one authenticated
// control packet on the reply link. It returns when the processor has
// authenticated the NACK; ok=false means the NACK itself was lost or
// corrupted in flight and the processor must fall back to its retry timer.
func (c *Controller) sendNACK(cs *chanState, ch int, at sim.Time) (done sim.Time, ok bool) {
	c.stats.NACKsSent++
	c.met.nacksSent.Inc()
	ready := pregenReady(cs.memRespEng, at, 1)
	ready = cs.memMAC.Issue(ready)
	pkt := c.controlPacket(ch, bus.MemToProc, bus.ControlNACK)
	arrive, del := c.bus.Transfer(ready, pkt)
	if del != pkt {
		c.stats.NACKsLost++
		return arrive, false
	}
	done = arrive + SerDesLatency
	cs.procVerMAC.Issue(arrive)
	c.tr.rec.Instant(trace.ChannelPID(ch), c.tr.recovery, c.tr.nack, done)
	return done, true
}

// requestFailAt returns when the processor learns that a request leg
// failed: the authenticated NACK's arrival when the memory rejected it, or
// retry-timer expiry when the packet (or its NACK) was lost in flight.
func (c *Controller) requestFailAt(cs *chanState, ch int, arrive sim.Time, delivered *bus.Packet, decodeDone sim.Time) sim.Time {
	if delivered != nil {
		if at, ok := c.sendNACK(cs, ch, decodeDone); ok {
			return at
		}
	}
	at := arrive + c.retryTimeout()
	if c.tr.rec != nil {
		c.tr.rec.Span(trace.ChannelPID(ch), c.tr.recovery, trace.CatQueue, c.tr.retryTimer, arrive, at)
	}
	return at
}

// resync runs the authenticated counter-resynchronisation handshake: the
// processor proposes (encrypted) its counter vector on the request link,
// the memory verifies, adopts it, and acknowledges on the reply link. A
// dropped or corrupted handshake leg is detected (authenticated control
// traffic) and reported failed after the retry timer. On success the two
// sides' pad counters — desynchronised by whatever the fault destroyed —
// are aligned again.
func (c *Controller) resync(cs *chanState, ch int, at sim.Time) (done sim.Time, ok bool) {
	begin := at
	ready := pregenReady(cs.procReqEng, at, 1)
	ready = cs.procMAC.Issue(ready)
	req := c.controlPacket(ch, bus.ProcToMem, bus.ControlResyncReq)
	arrive, del := c.bus.Transfer(ready, req)
	if del != req {
		c.stats.ResyncFailures++
		fail := arrive + c.retryTimeout()
		if c.tr.rec != nil {
			c.tr.rec.Span(trace.ChannelPID(ch), c.tr.recovery, trace.CatQueue, c.tr.resyncTimer, arrive, fail)
		}
		return fail, false
	}
	// Memory side: deserialise, verify, adopt, acknowledge.
	mdone := pregenReady(cs.memReqEng, arrive, 1) + SerDesLatency
	cs.memMAC.Issue(arrive)
	ackReady := pregenReady(cs.memRespEng, mdone, 1)
	ackReady = cs.memMAC.Issue(ackReady)
	ack := c.controlPacket(ch, bus.MemToProc, bus.ControlResyncResp)
	ackArrive, ackDel := c.bus.Transfer(ackReady, ack)
	if ackDel != ack {
		c.stats.ResyncFailures++
		fail := ackArrive + c.retryTimeout()
		if c.tr.rec != nil {
			c.tr.rec.Span(trace.ChannelPID(ch), c.tr.recovery, trace.CatQueue, c.tr.resyncTimer, ackArrive, fail)
		}
		return fail, false
	}
	done = ackArrive + SerDesLatency
	cs.procVerMAC.Issue(ackArrive)
	// Both sides now share the processor's view of the counter space; the
	// pair-parity schedule restarts cleanly.
	cs.memReqCtr = cs.reqCtr
	cs.memParity = 0
	cs.procRespCtr = cs.respCtr
	c.stats.Resyncs++
	c.met.resyncs.Inc()
	if c.tr.rec != nil {
		c.tr.rec.Span(trace.ChannelPID(ch), c.tr.recovery, trace.CatCrypto, c.tr.ctrResync, begin, done)
	}
	return done, true
}

// retryLeg drives the bounded backoff/resync/retransmit loop for one failed
// request leg. h describes the leg as originally issued; failAt is when the
// processor first learned of the failure. It returns the leg's completion
// time and whether it ultimately succeeded; on retry exhaustion the channel
// is quarantined and the leg reported failed.
func (c *Controller) retryLeg(cs *chanState, ch int, h half, failAt sim.Time) (done sim.Time, ok bool) {
	firstFail := failAt
	budget := c.retryBudget()
	for attempt := 1; attempt <= budget; attempt++ {
		at := failAt + c.retryBackoff(attempt)
		if c.tr.rec != nil {
			c.tr.rec.Span(trace.ChannelPID(ch), c.tr.recovery, trace.CatQueue, c.tr.retryBackoff, failAt, at,
				trace.Int(trace.KeyAttempt, int64(attempt)))
		}
		rdone, rok := c.resync(cs, ch, at)
		if !rok {
			failAt = rdone
			continue
		}
		// Retransmit with fresh pad counters from the resynced space. The
		// retransmitted leg occupies a full slot group so the schedule
		// stays uniform: cmd at padBase, data pads at padBase+2.
		pads := uint64(6)
		if c.cfg.Symmetric {
			pads = 5
		}
		padBase := cs.reqCtr
		cs.reqCtr += pads
		_, sendReady := c.requestCrypto(cs, ch, rdone, int(pads), false, false)
		c.stats.Retransmits++
		c.met.retransmits.Inc()
		arrive, del := c.sendPacket(cs, ch, sendReady, h.t, h.addr, h.dummy, h.withData,
			padBase, c.sealPayload(cs, ch, padBase, h.payload))
		if del == nil {
			c.stats.RequestsLost++
			failAt = arrive + c.retryTimeout()
			if c.tr.rec != nil {
				c.tr.rec.Span(trace.ChannelPID(ch), c.tr.recovery, trace.CatQueue, c.tr.retryTimer, arrive, failAt)
			}
			continue
		}
		t, dAddr, decodeDone, accepted := c.memDecodeSlot(cs, ch, arrive, del, padBase)
		cs.memReqCtr = padBase + pads
		cs.memParity = 0
		if arrive > cs.lastReqWire {
			cs.lastReqWire = arrive
		}
		if !accepted {
			failAt = c.requestFailAt(cs, ch, arrive, del, decodeDone)
			continue
		}
		done, ok = c.serviceRetried(cs, ch, h, del, t, dAddr, padBase, decodeDone)
		if !ok {
			failAt = done
			if c.lastReplyLost {
				failAt = done + c.retryTimeout()
				if c.tr.rec != nil {
					c.tr.rec.Span(trace.ChannelPID(ch), c.tr.recovery, trace.CatQueue, c.tr.retryTimer, done, failAt)
				}
			}
			continue
		}
		c.stats.Recovered++
		c.met.recovered.Inc()
		c.met.recoveryNS.Observe(int64(done - firstFail))
		c.tr.rec.Instant(trace.ChannelPID(ch), c.tr.recovery, c.tr.recovered, done,
			trace.Int(trace.KeyAttempt, int64(attempt)))
		return done, ok
	}
	return c.quarantineChannel(cs, ch, h, failAt)
}

// serviceRetried runs the memory-side service and reply for a successfully
// retransmitted leg (the tail of issuePair's process / symmetricRequest,
// against the fresh slot group).
func (c *Controller) serviceRetried(cs *chanState, ch int, h half, del *bus.Packet,
	t bus.ReqType, dAddr uint64, padBase uint64, decodeDone sim.Time) (sim.Time, bool) {

	if c.cfg.Symmetric {
		var dataReady sim.Time
		if t == bus.Read {
			dataReady = c.mem.AccessOnChannel(decodeDone, ch, dAddr, false)
		} else {
			c.mem.AccessOnChannel(decodeDone, ch, dAddr, true)
			dataReady = decodeDone
		}
		if c.cfg.TimingOblivious {
			dataReady = padReply(decodeDone, dataReady)
		}
		return c.reply(cs, ch, dataReady, t == bus.Write, dAddr, decodeDone)
	}
	if h.t == bus.Read {
		dataReady := c.memAccessForRead(cs, ch, decodeDone, t, dAddr, h.dummy)
		if c.cfg.TimingOblivious {
			dataReady = padReply(decodeDone, dataReady)
		}
		var blk []byte
		if h.wantData && !h.dummy {
			stored := c.mem.LoadBlock(dAddr)
			blk = c.transitSealReply(cs, ch, cs.respCtr, stored)
		}
		return c.replyData(cs, ch, dataReady, h.dummy, dAddr, decodeDone, h.wantData, blk)
	}
	if !h.dummy && h.payload != nil && del.Data != nil {
		c.mem.StoreBlock(dAddr, c.transitOpenRequest(cs, ch, padBase, del.Data))
	}
	return c.memAccessForWrite(cs, ch, decodeDone, dAddr, h.dummy), true
}

// quarantineChannel takes the channel fail-stop after retry exhaustion:
// graceful degradation instead of a panic or a silent loss. The first
// quarantine on a channel records a QuarantineEvent for the typed error
// surface; the failing leg (and every later request refused at the entry
// gates) is accounted against it.
func (c *Controller) quarantineChannel(cs *chanState, ch int, h half, at sim.Time) (sim.Time, bool) {
	if !cs.quarantined {
		cs.quarantined = true
		c.stats.Quarantines++
		c.met.quarantines.Inc()
		c.events = append(c.events, QuarantineEvent{Channel: ch, At: at, Attempts: c.retryBudget()})
		c.tr.rec.Instant(trace.ChannelPID(ch), c.tr.recovery, c.tr.quarantine, at,
			trace.Int(trace.KeyAttempts, int64(c.retryBudget())))
	}
	c.legFailed(h.dummy, true)
	return at, false
}
