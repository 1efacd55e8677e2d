package cache

import (
	"fmt"

	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

// MemAccess describes one request the hierarchy sends to the memory system:
// an LLC demand miss (read) or an LLC writeback (write).
type MemAccess struct {
	Addr  uint64
	Write bool
	// Demand is true for the miss that the requesting instruction waits
	// on; writebacks are posted.
	Demand bool
}

// AccessResult reports how a core access resolved.
type AccessResult struct {
	// HitLevel is 1..3 for cache hits, 4 for memory.
	HitLevel int
	// Latency is the on-chip lookup latency (excluding memory).
	Latency sim.Time
	// MemAccesses lists demand misses and writebacks to send to memory,
	// demand first.
	MemAccesses []MemAccess
}

// Hierarchy is the multi-core cache system: private L1/L2 per core, shared
// L3, MESI coherence among the private L2s (L1s are kept as inclusive
// subsets of their L2 and are invalidated on snoops).
type Hierarchy struct {
	cores int
	l1    []*Cache
	l2    []*Cache
	l3    *Cache

	tr       *trace.Recorder
	coreTrk  []trace.TrackID // per-core tracks of tr
	hitNames [len(hitNames)]trace.NameID

	// coherence traffic counters
	SnoopHits        uint64
	Invalidations    uint64
	InterventionMiss uint64 // misses served by a peer cache, not memory
}

// NewHierarchy builds the Table 2 hierarchy for the given core count.
func NewHierarchy(cores int) *Hierarchy {
	if cores <= 0 {
		panic("cache: need at least one core")
	}
	h := &Hierarchy{
		cores: cores,
		l1:    make([]*Cache, cores),
		l2:    make([]*Cache, cores),
		l3:    New(L3Config),
	}
	for i := 0; i < cores; i++ {
		h.l1[i] = New(L1Config)
		h.l2[i] = New(L2Config)
	}
	return h
}

// Cores returns the core count.
func (h *Hierarchy) Cores() int { return h.cores }

// SetTrace attaches a span recorder (nil detaches). Only the timed entry
// point AccessAt emits spans; the untimed Access never does.
func (h *Hierarchy) SetTrace(tr *trace.Recorder) {
	h.tr = tr
	h.coreTrk = nil
	if tr == nil {
		return
	}
	h.coreTrk = make([]trace.TrackID, h.cores)
	for i := range h.coreTrk {
		h.coreTrk[i] = tr.Track(fmt.Sprintf("core%d", i))
	}
	for lvl, name := range hitNames {
		h.hitNames[lvl] = tr.Name(name)
	}
}

// L1 returns core i's L1.
func (h *Hierarchy) L1(i int) *Cache { return h.l1[i] }

// L2 returns core i's L2.
func (h *Hierarchy) L2(i int) *Cache { return h.l2[i] }

// L3 returns the shared LLC.
func (h *Hierarchy) L3() *Cache { return h.l3 }

// snoop looks for addr in other cores' private caches. On a write request
// the peer copies are invalidated (dirty peer data is folded into the L3);
// on a read they are downgraded to Shared.
func (h *Hierarchy) snoop(requester int, addr uint64, write bool) (found, foundDirty bool) {
	for i := 0; i < h.cores; i++ {
		if i == requester {
			continue
		}
		st := h.l2[i].Probe(addr)
		if st == Invalid {
			continue
		}
		found = true
		h.SnoopHits++
		if st == Modified {
			foundDirty = true
		}
		if write {
			h.l2[i].Invalidate(addr)
			h.l1[i].Invalidate(addr)
			h.Invalidations++
		} else {
			h.l2[i].SetState(addr, Shared)
			h.l1[i].SetState(addr, Shared)
		}
	}
	return found, foundDirty
}

// insertPrivate installs addr into a core's L1+L2, propagating evictions:
// an L2 dirty victim is written into the L3; an L3 dirty victim becomes a
// memory writeback.
func (h *Hierarchy) insertPrivate(core int, addr uint64, s State, out *[]MemAccess) {
	if ev, ok := h.l1[core].Insert(addr, s); ok && ev.Dirty {
		// L1 dirty victim folds into L2.
		h.l2[core].SetState(ev.Addr, Modified)
		if h.l2[core].Probe(ev.Addr) == Invalid {
			// Non-inclusive corner: victim left L2 already; push to L3.
			h.insertL3(ev.Addr, Modified, out)
		}
	}
	if ev, ok := h.l2[core].Insert(addr, s); ok {
		// Keep L1 an inclusive subset of L2.
		if h.l1[core].Invalidate(ev.Addr) || ev.Dirty {
			h.insertL3(ev.Addr, Modified, out)
		} else {
			h.insertL3(ev.Addr, Shared, out)
		}
	}
}

func (h *Hierarchy) insertL3(addr uint64, s State, out *[]MemAccess) {
	if h.l3.Probe(addr) != Invalid {
		if s == Modified {
			h.l3.SetState(addr, Modified)
		}
		return
	}
	if ev, ok := h.l3.Insert(addr, s); ok && ev.Dirty {
		*out = append(*out, MemAccess{Addr: ev.Addr, Write: true})
	}
}

// Access performs one core load/store through the hierarchy and returns how
// it resolved. The caller (CPU model) is responsible for timing memory
// accesses in the result.
func (h *Hierarchy) Access(core int, addr uint64, write bool) AccessResult {
	addr = h.l1[core].BlockAddr(addr)
	res := AccessResult{}

	// L1.
	res.Latency += L1Config.HitLatency
	if st := h.l1[core].Lookup(addr, true); st != Invalid {
		if write {
			if st == Shared {
				// Upgrade: invalidate peers.
				h.snoop(core, addr, true)
			}
			h.l1[core].SetState(addr, Modified)
			h.l2[core].SetState(addr, Modified)
		}
		res.HitLevel = 1
		return res
	}

	// L2.
	res.Latency += L2Config.HitLatency
	if st := h.l2[core].Lookup(addr, true); st != Invalid {
		if write && st == Shared {
			h.snoop(core, addr, true)
			st = Modified
		}
		ns := st
		if write {
			ns = Modified
		}
		h.l2[core].SetState(addr, ns)
		h.insertPrivate(core, addr, ns, &res.MemAccesses)
		res.HitLevel = 2
		return res
	}

	// Coherence: peer private caches.
	found, _ := h.snoop(core, addr, write)

	// L3.
	res.Latency += L3Config.HitLatency
	l3st := h.l3.Lookup(addr, true)
	if l3st != Invalid || found {
		if found {
			h.InterventionMiss++
		}
		st := Shared
		if write {
			st = Modified
		} else if !found && l3st == Exclusive {
			st = Exclusive
		}
		h.insertPrivate(core, addr, st, &res.MemAccesses)
		if l3st == Invalid {
			h.insertL3(addr, Shared, &res.MemAccesses)
		}
		res.HitLevel = 3
		return res
	}

	// LLC miss: fetch from memory.
	res.HitLevel = 4
	st := Exclusive
	if write {
		st = Modified
	}
	memOps := []MemAccess{{Addr: addr, Write: false, Demand: true}}
	h.insertL3(addr, Shared, &memOps)
	h.insertPrivate(core, addr, st, &memOps)
	res.MemAccesses = memOps
	return res
}

// hitNames labels AccessAt trace spans by resolution level (index matches
// AccessResult.HitLevel).
var hitNames = [5]names.Name{1: names.SpanL1Hit, 2: names.SpanL2Hit, 3: names.SpanL3Hit, 4: names.SpanLLCMiss}

// AccessAt is Access with a wall-clock anchor: identical cache behaviour,
// plus one trace span per lookup covering the on-chip latency when a
// recorder is attached via SetTrace.
func (h *Hierarchy) AccessAt(at sim.Time, core int, addr uint64, write bool) AccessResult {
	res := h.Access(core, addr, write)
	if h.tr != nil {
		h.tr.Span(trace.PIDCPU, h.coreTrk[core], trace.CatOther, h.hitNames[res.HitLevel],
			at, at+res.Latency, trace.Uint(trace.KeyAddr, addr), trace.Bool(trace.KeyWrite, write))
	}
	return res
}

// LLCMisses returns the shared-L3 miss count (the MPKI numerator).
func (h *Hierarchy) LLCMisses() uint64 { return h.l3.Stats().Misses }

// LLCWritebacks returns dirty evictions from the LLC.
func (h *Hierarchy) LLCWritebacks() uint64 { return h.l3.Stats().Writebacks }

// FlushAll drains every dirty line to memory writebacks.
func (h *Hierarchy) FlushAll() []MemAccess {
	var out []MemAccess
	for i := 0; i < h.cores; i++ {
		for _, a := range h.l1[i].Flush() {
			h.insertL3(a, Modified, &out)
		}
		for _, a := range h.l2[i].Flush() {
			h.insertL3(a, Modified, &out)
		}
	}
	for _, a := range h.l3.Flush() {
		out = append(out, MemAccess{Addr: a, Write: true})
	}
	return out
}

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	for i := 0; i < h.cores; i++ {
		h.l1[i].Reset()
		h.l2[i].Reset()
	}
	h.l3.Reset()
	h.SnoopHits = 0
	h.Invalidations = 0
	h.InterventionMiss = 0
}
