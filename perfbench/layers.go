package main

import (
	"encoding/binary"
	"runtime"
	"sort"
	"time"

	"obfusmem/internal/aes"
	"obfusmem/internal/attack"
	"obfusmem/internal/bus"
	"obfusmem/internal/cache"
	"obfusmem/internal/cpu"
	"obfusmem/internal/md5sim"
	"obfusmem/internal/memctl"
	"obfusmem/internal/pcm"
	"obfusmem/internal/sim"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// schemeTimes accumulates host time inside one scheme's System calls.
type schemeTimes struct {
	readNS, writeNS int64
	reads, writes   uint64
}

// layerAcc is what the traced run's timers and counters collect, summed
// over every cell of a pass.
type layerAcc struct {
	schemes map[string]*schemeTimes
	drainNS int64

	cpuNS, sampleNS, newNS int64
	newN                   int64
	requests               uint64

	// Work counts read from the layers' public counters after each cell.
	packets, memAccesses, pcmAccesses, pcmRowHits uint64
	obfusPads, obfusMACs, obfusReal, obfusAll     uint64
	ctrHits, ctrLookups                           uint64
	lost                                          uint64
	spans, spansKept                              uint64
	allocBytes, allocs, gcs                       uint64
	obfusCells                                    int

	// Host calls into aes (CTR.Pad) and md5sim (Compute), counted from the
	// packets the ObfusMem controller puts on the bus.
	hostPads, hostMACs uint64

	observeNS, evalNS, attribNS, classNS int64
	observeN, evalN, attribN, classN     int64
}

func newLayerAcc() *layerAcc { return &layerAcc{schemes: make(map[string]*schemeTimes)} }

// timedSystem times every call into a System.
type timedSystem struct {
	sys cpu.MemorySystem
	st  *schemeTimes
	la  *layerAcc
}

func (t *timedSystem) Read(at sim.Time, addr uint64) sim.Time {
	s := time.Now()
	done := t.sys.Read(at, addr)
	t.st.readNS += time.Since(s).Nanoseconds()
	t.st.reads++
	return done
}

func (t *timedSystem) Write(at sim.Time, addr uint64) sim.Time {
	s := time.Now()
	done := t.sys.Write(at, addr)
	t.st.writeNS += time.Since(s).Nanoseconds()
	t.st.writes++
	return done
}

func (t *timedSystem) Drain(at sim.Time) {
	s := time.Now()
	t.sys.Drain(at)
	t.la.drainNS += time.Since(s).Nanoseconds()
}

// wrap times the cell's System calls and, on ObfusMem machines, counts the
// host crypto calls its packets imply: the processor seals each command
// with one pad and MACs it, the memory opens it with one pad and verifies
// the MAC; the memory MACs each reply and the processor verifies real ones.
func (la *layerAcc) wrap(c cell, sys *system.System) *timedSystem {
	st := la.schemes[c.scheme]
	if st == nil {
		st = &schemeTimes{}
		la.schemes[c.scheme] = st
	}
	if sys.Obfus() != nil {
		sys.Bus().AttachObserver(bus.ObserverFunc(func(_ sim.Time, p *bus.Packet) {
			switch {
			case p.Dir == bus.ProcToMem && p.HasCmd:
				la.hostPads += 2
				if p.HasMAC {
					la.hostMACs += 2
				}
			case p.Dir == bus.MemToProc && p.HasMAC:
				la.hostMACs++
				if !p.IsDummy {
					la.hostMACs++
				}
			}
		}))
	}
	return &timedSystem{sys: sys, st: st, la: la}
}

// timedObserver times the attack observer's Observe calls.
func (la *layerAcc) timedObserver(o *attack.Observer) bus.Observer {
	return bus.ObserverFunc(func(at sim.Time, p *bus.Packet) {
		s := time.Now()
		o.Observe(at, p)
		la.observeNS += time.Since(s).Nanoseconds()
		la.observeN++
	})
}

// afterRun reads the layers' public counters once a cell's run is done.
func (la *layerAcc) afterRun(m machine, before *runtime.MemStats, cpuNS int64, res cpu.Result) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	la.allocBytes += after.TotalAlloc - before.TotalAlloc
	la.allocs += after.Mallocs - before.Mallocs
	la.gcs += uint64(after.NumGC - before.NumGC)
	la.cpuNS += cpuNS
	la.requests += res.Requests

	sys := m.sys
	for _, s := range sys.Bus().Stats() {
		la.packets += s.Packets
	}
	for _, s := range sys.Memory().Stats() {
		la.memAccesses += s.Reads + s.Writes
	}
	ps := sys.Memory().TotalPCMStats()
	la.pcmAccesses += ps.Accesses
	la.pcmRowHits += ps.RowHits
	if o := sys.Obfus(); o != nil {
		st := o.Stats()
		la.obfusCells++
		la.obfusPads += o.PadsProc() + o.PadsMem()
		la.obfusMACs += st.MACsComputed
		real := st.RealReads + st.RealWrites
		la.obfusReal += real
		la.obfusAll += real + st.DummyReads + st.DummyWrites
	}
	if e := sys.Encryption(); e != nil {
		st := e.Stats()
		la.ctrHits += st.CtrHits
		la.ctrLookups += st.CtrHits + st.CtrMisses
	}
	a := sys.Accounting()
	la.lost += a.Lost + a.Refused
	if m.rec != nil {
		la.spans += uint64(m.rec.Len()) + m.rec.Dropped()
		la.spansKept += uint64(m.rec.Len())
	}
}

// sysNS is the host time spent inside System calls.
func (la *layerAcc) sysNS() int64 {
	ns := la.drainNS
	for _, st := range la.schemes {
		ns += st.readNS + st.writeNS
	}
	return ns
}

// microInputs takes the first perProfile requests of every distinct
// profile stream in the workload, so the component microbenchmarks run on
// the addresses, gaps and read/write mix the workload itself issues.
func microInputs(cells []cell, perProfile int) []workload.Request {
	seen := make(map[string]bool)
	var out []workload.Request
	for _, c := range cells {
		if seen[c.prof.Name] {
			continue
		}
		seen[c.prof.Name] = true
		st := workload.NewStream(c.prof, c.cpuSeed)
		for i := 0; i < perProfile; i++ {
			out = append(out, st.Next())
		}
	}
	return out
}

// micro is one component microbenchmark's result.
type micro struct {
	nsPerCall     float64
	allocsPerCall float64
}

// microRounds is how many timed rounds each microbenchmark takes; the
// median round is reported.
const microRounds = 7

// timeRounds runs round microRounds times (after one untimed warm-up) and
// returns the median ns per call and the allocations per call of the last
// round. round returns how many calls it made.
func timeRounds(round func() int) micro {
	round()
	var perCall []float64
	var m micro
	for r := 0; r < microRounds; r++ {
		var before, after runtime.MemStats
		last := r == microRounds-1
		if last {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		calls := round()
		ns := time.Since(start).Nanoseconds()
		if last {
			runtime.ReadMemStats(&after)
			m.allocsPerCall = float64(after.Mallocs-before.Mallocs) / float64(calls)
		}
		perCall = append(perCall, float64(ns)/float64(calls))
	}
	sort.Float64s(perCall)
	m.nsPerCall = perCall[len(perCall)/2]
	return m
}

// sink keeps microbenchmark results live.
var sink uint64

// microbenchmarks times each component's public per-operation call on the
// workload's own request streams.
func microbenchmarks(reqs []workload.Request, seed uint64) map[string]micro {
	out := make(map[string]micro)

	var key [16]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	ciph, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	ctr := aes.NewCTR(ciph)
	out["aes"] = timeRounds(func() int {
		for i, r := range reqs {
			p := ctr.Pad(aes.IV{ID: uint64(i & 7), Counter: r.Addr})
			sink ^= uint64(p[0])
		}
		return len(reqs)
	})

	out["md5sim"] = timeRounds(func() int {
		for i, r := range reqs {
			t := bus.Read
			if r.Write {
				t = bus.Write
			}
			sink ^= uint64(md5sim.Compute(byte(t), r.Addr, uint64(i)))
		}
		return len(reqs)
	})

	const channels = 2
	mp := memctl.NewMapper(memctl.DefaultConfig(channels))
	coords := make([]memctl.Coords, len(reqs))
	for i, r := range reqs {
		coords[i] = mp.Decode(r.Addr)
	}

	b := bus.New(bus.DefaultConfig(channels))
	cmd := bus.Packet{Dir: bus.ProcToMem, HasCmd: true}
	reply := bus.Packet{Dir: bus.MemToProc, Data: make([]byte, bus.DataBytes)}
	payload := make([]byte, bus.DataBytes)
	out["bus"] = timeRounds(func() int {
		b.Reset()
		calls := 0
		var at sim.Time
		for i, r := range reqs {
			at += r.Gap
			cmd.Channel = coords[i].Channel
			cmd.Addr = r.Addr
			if r.Write {
				cmd.Type, cmd.Data = bus.Write, payload
				b.Transfer(at, &cmd)
				calls++
				continue
			}
			cmd.Type, cmd.Data = bus.Read, nil
			arrive, _ := b.Transfer(at, &cmd)
			reply.Channel = cmd.Channel
			b.Transfer(arrive, &reply)
			calls += 2
		}
		return calls
	})

	mc := memctl.New(memctl.DefaultConfig(channels))
	out["memctl"] = timeRounds(func() int {
		mc.Reset()
		var at sim.Time
		for _, r := range reqs {
			at += r.Gap
			sink ^= uint64(mc.Access(at, r.Addr, r.Write))
		}
		return len(reqs)
	})

	dev := pcm.New(pcm.DefaultConfig())
	out["pcm"] = timeRounds(func() int {
		dev.Reset()
		var at sim.Time
		for i, r := range reqs {
			at += r.Gap
			co := coords[i]
			sink ^= uint64(dev.Access(at, co.Rank, co.Bank, co.Row, r.Write))
		}
		return len(reqs)
	})

	// The counter cache as ctrmode drives it: one Lookup per access of the
	// page's counter block, with an Insert on a miss.
	cc := cache.New(cache.CounterCacheConfig)
	out["cache"] = timeRounds(func() int {
		cc.Reset()
		for _, r := range reqs {
			a := uint64(1)<<40 + r.Addr/4096*64
			if cc.Lookup(a, true) == cache.Invalid {
				cc.Insert(a, cache.Modified)
			}
		}
		return len(reqs)
	})
	return out
}

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
}

// allSchemes fixes the system.read_ns/write_ns metric names: the six
// schemes the backend registry holds.
var allSchemes = []string{"unprotected", "encrypt-only", "obfusmem", "obfusmem-auth", "palermo", "oram"}

// layerMetrics lists every per-layer metric in BENCHMARK.json order.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"workload.next_ns", "ns"},
		{"cpu.drive_ns_per_req", "ns"},
	}
	for _, s := range allSchemes {
		ms = append(ms, layerMetric{"system.read_ns." + s, "ns"})
	}
	for _, s := range allSchemes {
		ms = append(ms, layerMetric{"system.write_ns." + s, "ns"})
	}
	return append(ms, []layerMetric{
		{"system.share", "%"},
		{"system.new_ms", "ms"},
		{"aes.pad_ns", "ns"},
		{"aes.pad_allocs", "count"},
		{"md5sim.mac_ns", "ns"},
		{"bus.transfer_ns", "ns"},
		{"memctl.access_ns", "ns"},
		{"pcm.access_ns", "ns"},
		{"cache.lookup_ns", "ns"},
		{"obfus.pads_per_req", "count"},
		{"obfus.macs_per_req", "count"},
		{"aes.calls_per_req", "count"},
		{"md5sim.calls_per_req", "count"},
		{"bus.packets_per_req", "count"},
		{"memctl.accesses_per_req", "count"},
		{"pcm.accesses_per_req", "count"},
		{"go.alloc_b_per_req", "B"},
		{"go.allocs_per_req", "count"},
		{"go.gc_per_mreq", "count"},
		{"obfus.real_frac", "ratio"},
		{"pcm.row_hit_rate", "ratio"},
		{"ctrmode.ctr_hit_rate", "ratio"},
		{"trace.kept_frac", "ratio"},
		{"trace.overhead_pct", "%"},
		{"trace.spans_per_req", "count"},
		{"metrics.overhead_pct", "%"},
		{"attack.observe_ns", "ns"},
		{"leakage.evaluate_ms", "ms"},
		{"leakage.classify_ms", "ms"},
		{"trace.attribution_ms", "ms"},
		{"backend.lost_per_mreq", "count"},
		{"model.aes_ns_per_req", "ns"},
		{"model.md5sim_ns_per_req", "ns"},
		{"model.bus_ns_per_req", "ns"},
		{"model.memctl_ns_per_req", "ns"},
		{"model.pcm_ns_per_req", "ns"},
		{"model.system_ns_per_req", "ns"},
		{"model.residual_pct", "%"},
		{"model.crypto_share_pct", "%"},
		{"bench.timer_overhead_pct", "%"},
	}...)
}

// layerPasses are the passes of one traced run.
type layerPasses struct {
	plain, timed        passSum
	traceOff, noMetrics passSum // observed only
	la                  *layerAcc
	micro               map[string]micro
}

// passSum totals one kind of pass over the traced run's rounds.
type passSum struct {
	runNS    int64
	requests uint64
}

// layerValues computes every per-layer metric, and a reason for each one
// that does not apply to the workload (its value is then 0).
func layerValues(w workloadDef, lp layerPasses) (map[string]float64, map[string]string) {
	la := lp.la
	v := make(map[string]float64)
	na := make(map[string]string)
	req := float64(la.requests)
	perReq := func(x uint64) float64 { return float64(x) / req }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	perCall := func(ns int64, calls uint64) float64 { return ratio(uint64(ns), calls) }
	sys := float64(la.sysNS())

	v["workload.next_ns"] = float64(la.sampleNS) / req
	v["cpu.drive_ns_per_req"] = float64(la.cpuNS-la.sysNS()-la.sampleNS) / req
	for _, s := range allSchemes {
		st := la.schemes[s]
		if st == nil {
			why := "no " + s + " machine in this workload"
			na["system.read_ns."+s], na["system.write_ns."+s] = why, why
			continue
		}
		v["system.read_ns."+s] = perCall(st.readNS, st.reads)
		v["system.write_ns."+s] = perCall(st.writeNS, st.writes)
	}
	v["system.share"] = 100 * sys / float64(la.cpuNS)
	v["system.new_ms"] = perCall(la.newNS, uint64(la.newN)) / 1e6

	mb := lp.micro
	v["aes.pad_ns"] = mb["aes"].nsPerCall
	v["aes.pad_allocs"] = mb["aes"].allocsPerCall
	v["md5sim.mac_ns"] = mb["md5sim"].nsPerCall
	v["bus.transfer_ns"] = mb["bus"].nsPerCall
	v["memctl.access_ns"] = mb["memctl"].nsPerCall
	v["pcm.access_ns"] = mb["pcm"].nsPerCall
	v["cache.lookup_ns"] = mb["cache"].nsPerCall

	v["obfus.pads_per_req"] = perReq(la.obfusPads)
	v["obfus.macs_per_req"] = perReq(la.obfusMACs)
	v["obfus.real_frac"] = ratio(la.obfusReal, la.obfusAll)
	if la.obfusCells == 0 {
		for _, k := range []string{"obfus.pads_per_req", "obfus.macs_per_req", "obfus.real_frac"} {
			na[k] = "no ObfusMem machine in this workload"
		}
	}
	v["aes.calls_per_req"] = perReq(la.hostPads)
	v["md5sim.calls_per_req"] = perReq(la.hostMACs)
	v["bus.packets_per_req"] = perReq(la.packets)
	v["memctl.accesses_per_req"] = perReq(la.memAccesses)
	v["pcm.accesses_per_req"] = perReq(la.pcmAccesses)
	v["go.alloc_b_per_req"] = perReq(la.allocBytes)
	v["go.allocs_per_req"] = perReq(la.allocs)
	v["go.gc_per_mreq"] = perReq(la.gcs) * 1e6
	v["pcm.row_hit_rate"] = ratio(la.pcmRowHits, la.pcmAccesses)
	v["ctrmode.ctr_hit_rate"] = ratio(la.ctrHits, la.ctrLookups)
	if la.ctrLookups == 0 {
		na["ctrmode.ctr_hit_rate"] = "no machine with at-rest counter-mode encryption"
	}
	v["backend.lost_per_mreq"] = perReq(la.lost) * 1e6

	obsKeys := []string{"trace.kept_frac", "trace.overhead_pct", "trace.spans_per_req",
		"metrics.overhead_pct", "attack.observe_ns", "leakage.evaluate_ms",
		"leakage.classify_ms", "trace.attribution_ms"}
	if w.observed {
		pct := func(on, off passSum) float64 { return 100 * float64(on.runNS-off.runNS) / float64(off.runNS) }
		v["trace.kept_frac"] = ratio(la.spansKept, la.spans)
		v["trace.overhead_pct"] = pct(lp.plain, lp.traceOff)
		v["trace.spans_per_req"] = perReq(la.spans)
		v["metrics.overhead_pct"] = pct(lp.traceOff, lp.noMetrics)
		v["attack.observe_ns"] = perCall(la.observeNS, uint64(la.observeN))
		v["leakage.evaluate_ms"] = perCall(la.evalNS, uint64(la.evalN)) / 1e6
		v["leakage.classify_ms"] = perCall(la.classNS, uint64(la.classN)) / 1e6
		v["trace.attribution_ms"] = perCall(la.attribNS, uint64(la.attribN)) / 1e6
	} else {
		for _, k := range obsKeys {
			na[k] = "the recorder, registry, observer and leakage scoring are nil-off outside the observed workload"
		}
	}

	// Cost model: layer ns/call × calls/request. memctl.Access includes
	// one pcm.Device.Access, so the model charges memctl its self time.
	model := map[string]float64{
		"aes":    v["aes.pad_ns"] * v["aes.calls_per_req"],
		"md5sim": v["md5sim.mac_ns"] * v["md5sim.calls_per_req"],
		"bus":    v["bus.transfer_ns"] * v["bus.packets_per_req"],
		"memctl": (v["memctl.access_ns"] - v["pcm.access_ns"]) * v["memctl.accesses_per_req"],
		"pcm":    v["pcm.access_ns"] * v["pcm.accesses_per_req"],
	}
	var sum float64
	for k, x := range model {
		v["model."+k+"_ns_per_req"] = x
		sum += x
	}
	v["model.system_ns_per_req"] = sys / req
	v["model.residual_pct"] = 100 * (sys - sum*req) / sys
	runPerReq := float64(lp.plain.runNS) / float64(lp.plain.requests)
	v["model.crypto_share_pct"] = 100 * (model["aes"] + model["md5sim"]) / runPerReq
	v["bench.timer_overhead_pct"] = 100 * float64(lp.timed.runNS-lp.plain.runNS) / float64(lp.plain.runNS)
	return v, na
}
