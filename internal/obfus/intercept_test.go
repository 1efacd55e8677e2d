package obfus

import (
	"testing"

	"obfusmem/internal/bus"
	"obfusmem/internal/sim"
)

// TestDesyncFallbackMatchesObserved forces the two sides' pad counters
// apart mid-run, on an untapped bus and on one with a no-op observer. On
// the untapped bus the request and reply packets are never sealed, so
// every mismatch must rebuild the command ciphertext and MAC from ground
// truth and then detect the desync exactly as the eager path does: same
// detections, same recovery activity, same timing.
func TestDesyncFallbackMatchesObserved(t *testing.T) {
	type outcome struct {
		times  [48]sim.Time
		oks    [48]bool
		stats  Stats
		energy float64
	}
	run := func(cfg Config, observed bool, bump func(*chanState)) outcome {
		r := newRig(t, cfg, 2)
		if observed {
			r.bus.AttachObserver(bus.ObserverFunc(func(sim.Time, *bus.Packet) {}))
		}
		var o outcome
		at := sim.Time(0)
		for i := range o.times {
			if i == 16 {
				for _, cs := range r.ctrl.chans {
					bump(cs)
				}
			}
			addr := uint64(0x1000 + 64*(i*5%40))
			if i%4 == 3 {
				o.times[i], o.oks[i] = r.ctrl.Write(at, addr, at), true
			} else {
				o.times[i], o.oks[i] = r.ctrl.Read(at, addr)
			}
			at += 150 * sim.Nanosecond
		}
		r.ctrl.Drain(at)
		o.stats = r.ctrl.Stats()
		o.energy = r.ctrl.CryptoEnergyPJ()
		return o
	}
	recovery := DefaultAuth()
	recovery.Recovery = DefaultRecovery()
	thenMAC := DefaultAuth()
	thenMAC.MAC = EncryptThenMAC
	configs := []struct {
		name string
		cfg  Config
	}{
		{"mac-none", Default()},
		{"encrypt-and-mac", DefaultAuth()},
		{"encrypt-then-mac", thenMAC},
		{"recovery", recovery},
	}
	bumps := []struct {
		name string
		f    func(*chanState)
	}{
		{"memReqCtr", func(cs *chanState) { cs.memReqCtr++ }},
		{"procRespCtr", func(cs *chanState) { cs.procRespCtr++ }},
	}
	for _, c := range configs {
		for _, b := range bumps {
			t.Run(c.name+"/"+b.name, func(t *testing.T) {
				untapped := run(c.cfg, false, b.f)
				observed := run(c.cfg, true, b.f)
				if untapped != observed {
					t.Fatalf("observer changed the desync outcome:\nuntapped: %+v\nobserved: %+v",
						untapped.stats, observed.stats)
				}
				st := untapped.stats
				detected := st.TamperDetected + st.DecodeMismatches
				// Without a MAC a reply-counter slip is silent by design;
				// every other combination must be caught.
				if detected == 0 && !(c.cfg.MAC == MACNone && b.name == "procRespCtr") {
					t.Fatalf("desync went undetected: %+v", st)
				}
				if c.cfg.Recovery.Enabled && st.Resyncs == 0 {
					t.Fatalf("recovery never resynchronised: %+v", st)
				}
			})
		}
	}
}

// TestMemDecodeRebuildsUnsealedPacket decodes one request packet at the
// wrong memory-side counter, untapped and observed. The untapped packet
// arrives unsealed, so the decode must rebuild its wire view before the
// full path runs and return exactly what the eager path returns.
func TestMemDecodeRebuildsUnsealedPacket(t *testing.T) {
	type decoded struct {
		t    bus.ReqType
		addr uint64
		done sim.Time
		ok   bool
	}
	decode := func(cfg Config, observed bool) decoded {
		r := newRig(t, cfg, 1)
		if observed {
			r.bus.AttachObserver(bus.ObserverFunc(func(sim.Time, *bus.Packet) {}))
		}
		cs := r.ctrl.chans[0]
		arrive, del := r.ctrl.sendPacket(cs, 0, 0, bus.Read, 0x1240, false, false, 12, nil)
		var d decoded
		d.t, d.addr, d.done, d.ok = r.ctrl.memDecodeSlot(cs, 0, arrive, del, 13)
		return d
	}
	for _, cfg := range []Config{Default(), DefaultAuth()} {
		untapped, observed := decode(cfg, false), decode(cfg, true)
		if untapped != observed {
			t.Fatalf("MAC %v: untapped decode %+v, observed decode %+v", cfg.MAC, untapped, observed)
		}
		if untapped.ok {
			t.Fatalf("MAC %v: decode at the wrong counter accepted: %+v", cfg.MAC, untapped)
		}
	}
}
