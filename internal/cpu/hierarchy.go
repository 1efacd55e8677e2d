package cpu

import (
	"obfusmem/internal/cache"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// Full-hierarchy drive mode: instead of the calibrated post-LLC stream of
// Run, RunHierarchy issues loads and stores from synthetic per-core
// instruction streams through the real MESI L1/L2/L3 hierarchy, so LLC
// misses, writebacks, and coherence traffic arise organically. It is used
// by integration tests and the quickstart-style flows; Table/Figure
// experiments use the calibrated mode (see DESIGN.md).

// HierarchyWorkload parameterises the synthetic instruction streams.
type HierarchyWorkload struct {
	Cores int
	// MemFrac is the fraction of instructions that access memory.
	MemFrac float64
	// StoreFrac is the fraction of memory accesses that are stores.
	StoreFrac float64
	// HotFrac of accesses go to a per-core hot region (cache resident);
	// the rest stream through a large shared region.
	HotFrac float64
	// HotBytes and SharedBytes size the two regions.
	HotBytes    uint64
	SharedBytes uint64
	// SharedRW makes cores write the shared region too (coherence
	// traffic).
	SharedRW bool
}

// DefaultHierarchyWorkload returns a 4-core mixed workload.
func DefaultHierarchyWorkload() HierarchyWorkload {
	return HierarchyWorkload{
		Cores:       4,
		MemFrac:     0.3,
		StoreFrac:   0.3,
		HotFrac:     0.85,
		HotBytes:    16 << 10,
		SharedBytes: 256 << 20,
		SharedRW:    true,
	}
}

// HierarchyResult summarises a full-hierarchy run.
type HierarchyResult struct {
	Instructions uint64
	ExecTime     sim.Time
	IPC          float64
	LLCMisses    uint64
	MPKI         float64
	Writebacks   uint64
	HitLevels    [5]uint64 // index 1..4
	Snoops       uint64
	Invalidates  uint64
}

// RunHierarchy executes n instructions per core.
func RunHierarchy(w HierarchyWorkload, nPerCore int, h *cache.Hierarchy, sys MemorySystem, cfg Config, seed uint64) HierarchyResult {
	if cfg.Exposure <= 0 {
		d := DefaultConfig()
		d.Trace = cfg.Trace
		d.Sampler = cfg.Sampler
		cfg = d
	}
	if cfg.Trace != nil {
		h.SetTrace(cfg.Trace)
	}
	rd, wr := cfg.Trace.Name(names.ReqRead), cfg.Trace.Name(names.ReqWrite)
	if w.Cores <= 0 {
		w.Cores = 1
	}
	cycle := sim.Nanos(1.0 / workload.CPUFreqGHz)
	res := HierarchyResult{}
	now := make([]sim.Time, w.Cores)
	rngs := make([]*xrand.Rand, w.Cores)
	for c := range rngs {
		rngs[c] = xrand.New(seed + uint64(c)*97)
	}

	addr := func(core int) uint64 {
		r := rngs[core]
		if r.Prob(w.HotFrac) {
			// Uniform within the core's private hot region (sized to be
			// cache resident).
			base := uint64(core) * w.HotBytes
			return base + 64*uint64(r.Intn(int(w.HotBytes/64)))
		}
		// Shared region, uniform (streams through the LLC).
		return (r.Uint64() % w.SharedBytes) &^ 63
	}

	const chunk = 64
	for done := 0; done < nPerCore; done += chunk {
		for core := 0; core < w.Cores; core++ {
			r := rngs[core]
			for i := 0; i < chunk && done+i < nPerCore; i++ {
				now[core] += cycle
				if !r.Prob(w.MemFrac) {
					continue
				}
				a := addr(core)
				write := r.Prob(w.StoreFrac)
				if !w.SharedRW && a >= uint64(w.Cores)*w.HotBytes {
					write = false
				}
				cfg.Sampler.Advance(now[core])
				ar := h.AccessAt(now[core], core, a, write)
				res.HitLevels[ar.HitLevel]++
				now[core] += ar.Latency
				for _, m := range ar.MemAccesses {
					if m.Demand {
						id := cfg.Trace.BeginRequest(rd, m.Addr, now[core])
						done := sys.Read(now[core], m.Addr)
						cfg.Trace.EndRequest(id, done)
						lat := done - now[core]
						if lat > 0 {
							now[core] += sim.Time(cfg.Exposure * float64(lat))
						}
					} else if m.Write {
						res.Writebacks++
						id := cfg.Trace.BeginRequest(wr, m.Addr, now[core])
						done := sys.Write(now[core], m.Addr)
						cfg.Trace.EndRequest(id, done)
					}
				}
			}
		}
	}
	sys.Drain(maxTime(now))

	res.Instructions = uint64(nPerCore) * uint64(w.Cores)
	res.ExecTime = maxTime(now)
	cycles := res.ExecTime.Float64Nanos() * workload.CPUFreqGHz
	if cycles > 0 {
		res.IPC = float64(res.Instructions) / cycles
	}
	res.LLCMisses = h.LLCMisses()
	if res.Instructions > 0 {
		res.MPKI = float64(res.LLCMisses) / float64(res.Instructions) * 1000
	}
	res.Snoops = h.SnoopHits
	res.Invalidates = h.Invalidations
	return res
}

func maxTime(ts []sim.Time) sim.Time {
	var m sim.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
