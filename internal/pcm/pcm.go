// Package pcm models the DDR-interfaced phase-change main memory of the
// paper's evaluation (Table 2, parameters from Lee et al., "Architecting
// Phase Change Memory as a Scalable DRAM Alternative"): per-bank row
// buffers, an open-adaptive page policy, asymmetric read/write timing
// (60 ns array read, 150 ns array write), and the property that PCM cells
// are written only when a dirty row buffer is evicted.
//
// The device also keeps the energy and endurance accounting that Section
// 5.2 of the paper analyses: array writes cost 6.8x the energy of reads and
// wear out cells with limited write endurance.
package pcm

import (
	"fmt"

	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

// Timing and energy parameters (Table 2 and Section 5.2).
const (
	ArrayReadLatency  = 60 * sim.Nanosecond  // tRCD: activate row into buffer
	ArrayWriteLatency = 150 * sim.Nanosecond // tRP: write dirty row back to cells
	CASLatency        = sim.Time(13750)      // tCL = 13.75 ns
	BurstTime         = 5 * sim.Nanosecond   // tBURST: 64B at 12.8 GB/s

	// BlockReadEnergyPJ is the array energy of reading one 64-byte block.
	// The absolute scale is arbitrary; Section 5.2 depends only on the
	// write/read ratio of 6.8.
	BlockReadEnergyPJ   = 1024.0
	WriteEnergyRatio    = 6.8
	BlockWriteEnergyPJ  = WriteEnergyRatio * BlockReadEnergyPJ
	RowBufferEnergyPJ   = 16.0 // energy of a row-buffer (not array) access
	CellWriteEndurance  = 100e6
	BlocksPerRowDefault = 16 // 1 KB row / 64 B blocks
)

// Config sizes the device.
type Config struct {
	Ranks        int
	BanksPerRank int
	RowBytes     int // row buffer size
	BlockBytes   int
	// Timing selects the device technology; the zero value is the paper's
	// PCM (Table 2). Use DRAMTiming() for a DRAM layer with refresh.
	Timing Timing
	// AdaptiveIdleClose, if > 0, closes an idle open row after this long,
	// hiding the eviction latency off the critical path (the "adaptive"
	// part of the open-adaptive policy).
	AdaptiveIdleClose sim.Time
	// Metrics, when non-nil, receives device counters and latency
	// histograms (row hits/misses, bank conflicts, access and bank-wait
	// latency). The memory controller scopes it per channel.
	Metrics *metrics.Registry
	// Trace, when non-nil, records bank-wait and array-access spans per
	// bank. Channel names the trace process (the memory controller sets it
	// to the device's channel index). Nil disables.
	Trace   *trace.Recorder
	Channel int
}

// DefaultConfig matches Table 2: 2 ranks/channel, 8 banks/rank, 1 KB rows.
func DefaultConfig() Config {
	return Config{
		Ranks:             2,
		BanksPerRank:      8,
		RowBytes:          1024,
		BlockBytes:        64,
		AdaptiveIdleClose: 500 * sim.Nanosecond,
	}
}

// Stats aggregates device-level counters.
type Stats struct {
	Accesses      uint64
	RowHits       uint64
	RowMisses     uint64
	ArrayReads    uint64 // row activations (PCM cell reads)
	ArrayWrites   uint64 // dirty row evictions (PCM cell writes)
	BlockReads    uint64 // 64B blocks streamed from row buffers
	BlockWrites   uint64 // 64B blocks written into row buffers
	RefreshStalls uint64 // accesses delayed by a DRAM refresh window
	EnergyPJ      float64
}

type bank struct {
	res        *sim.Resource
	openRow    int64 // -1 when closed
	dirty      bool
	lastAccess sim.Time
}

// deviceMetrics holds the device's observability instruments; the zero
// value is the disabled state.
type deviceMetrics struct {
	rowHits       *metrics.Counter
	rowMisses     *metrics.Counter
	bankConflicts *metrics.Counter // row-buffer conflicts (open row evicted)
	arrayWrites   *metrics.Counter
	refreshStalls *metrics.Counter
	accessNS      *metrics.Histogram // device service latency per access
	bankWaitNS    *metrics.Histogram // time queued behind a busy bank
	maxWear       *metrics.Gauge
}

// Array access outcomes, indexing accessNames.
const (
	rowHit = iota
	rowMiss
	rowConflict
)

// accessNames are the span names of the array access outcomes.
var accessNames = [...]names.Name{
	rowHit:      names.SpanRowHit,
	rowMiss:     names.SpanRowMiss,
	rowConflict: names.SpanRowConflict,
}

// pcmTrace is the device's recorder with its per-bank tracks and span names
// resolved once at construction.
type pcmTrace struct {
	rec    *trace.Recorder
	banks  []trace.TrackID
	wait   trace.NameID
	access [len(accessNames)]trace.NameID
}

// Device is one PCM chip behind one channel.
type Device struct {
	cfg    Config
	timing Timing
	banks  []bank
	stats  Stats
	met    deviceMetrics
	tr     pcmTrace
	// wear tracks array writes per (bank,row) for endurance analysis.
	wear    map[uint64]uint64
	maxWear uint64
}

// New builds a device.
func New(cfg Config) *Device {
	if cfg.Ranks <= 0 || cfg.BanksPerRank <= 0 {
		panic("pcm: invalid geometry")
	}
	if cfg.RowBytes <= 0 || cfg.BlockBytes <= 0 || cfg.RowBytes%cfg.BlockBytes != 0 {
		panic("pcm: invalid row/block size")
	}
	if cfg.Timing.IsZero() {
		cfg.Timing = PCMTiming()
	}
	n := cfg.Ranks * cfg.BanksPerRank
	d := &Device{cfg: cfg, timing: cfg.Timing, banks: make([]bank, n), wear: make(map[uint64]uint64)}
	for i := range d.banks {
		d.banks[i].res = sim.NewResource(fmt.Sprintf("bank%d", i))
		d.banks[i].openRow = -1
	}
	if rec := cfg.Trace; rec != nil {
		d.tr = pcmTrace{rec: rec, banks: make([]trace.TrackID, n), wait: rec.Name(names.SpanBankWait)}
		for i := range d.tr.banks {
			d.tr.banks[i] = rec.Track(fmt.Sprintf("rank%d.bank%d", i/cfg.BanksPerRank, i%cfg.BanksPerRank))
		}
		for k, name := range accessNames {
			d.tr.access[k] = rec.Name(name)
		}
	}
	if sc := cfg.Metrics; sc != nil {
		d.met = deviceMetrics{
			rowHits:       sc.Counter(names.PCMRowHits),
			rowMisses:     sc.Counter(names.PCMRowMisses),
			bankConflicts: sc.Counter(names.PCMBankConflicts),
			arrayWrites:   sc.Counter(names.PCMArrayWrites),
			refreshStalls: sc.Counter(names.PCMRefreshStalls),
			accessNS:      sc.Histogram(names.PCMAccessNS, metrics.LatencyBucketsNS),
			bankWaitNS:    sc.Histogram(names.PCMBankWaitNS, metrics.LatencyBucketsNS),
			maxWear:       sc.Gauge(names.PCMMaxWear),
		}
	}
	return d
}

// Banks returns the total bank count.
func (d *Device) Banks() int { return len(d.banks) }

// Config returns the geometry.
func (d *Device) Config() Config { return d.cfg }

func (d *Device) bankIndex(rank, bankInRank int) int {
	if rank < 0 || rank >= d.cfg.Ranks || bankInRank < 0 || bankInRank >= d.cfg.BanksPerRank {
		panic(fmt.Sprintf("pcm: bad bank address rank=%d bank=%d", rank, bankInRank))
	}
	return rank*d.cfg.BanksPerRank + bankInRank
}

func (d *Device) wearKey(bankIdx int, row int64) uint64 {
	return uint64(bankIdx)<<40 | uint64(row)
}

// recordArrayWrite updates energy and wear for one dirty-row eviction.
func (d *Device) recordArrayWrite(bankIdx int, row int64) {
	d.stats.ArrayWrites++
	d.met.arrayWrites.Inc()
	d.stats.EnergyPJ += BlockReadEnergyPJ * d.timing.WriteEnergyRatio *
		float64(d.cfg.RowBytes/d.cfg.BlockBytes)
	if !d.timing.TrackWear {
		return
	}
	k := d.wearKey(bankIdx, row)
	d.wear[k]++
	if d.wear[k] > d.maxWear {
		d.maxWear = d.wear[k]
		d.met.maxWear.SetMax(float64(d.maxWear))
	}
}

// Access performs one 64-byte access to (rank, bank, row). It returns the
// time the data burst completes. Writes dirty the row buffer; actual PCM
// cell writes happen only on dirty-row eviction, exactly as in the paper's
// reference design.
func (d *Device) Access(at sim.Time, rank, bankInRank int, row int64, write bool) sim.Time {
	if row < 0 {
		panic("pcm: negative row")
	}
	idx := d.bankIndex(rank, bankInRank)
	b := &d.banks[idx]
	d.stats.Accesses++
	reqAt := at // request time before refresh shifts, for trace wait spans

	// Refresh (DRAM): an access landing inside a refresh window waits for
	// it to complete.
	if ri := d.timing.RefreshInterval; ri > 0 {
		boundary := (at / ri) * ri
		if at < boundary+d.timing.RefreshTime {
			at = boundary + d.timing.RefreshTime
			d.stats.RefreshStalls++
			d.met.refreshStalls.Inc()
			if b.openRow >= 0 {
				// Refresh closes open rows (auto-precharge).
				if b.dirty {
					d.recordArrayWrite(idx, b.openRow)
				}
				b.openRow = -1
				b.dirty = false
			}
		}
	}

	// Open-adaptive policy: if the row sat idle long enough, the device
	// closed it in the background; a dirty eviction happened off the
	// critical path (energy/wear still accrue).
	if d.cfg.AdaptiveIdleClose > 0 && b.openRow >= 0 &&
		at-b.lastAccess >= d.cfg.AdaptiveIdleClose {
		if b.dirty {
			d.recordArrayWrite(idx, b.openRow)
		}
		b.openRow = -1
		b.dirty = false
	}

	var latency sim.Time
	kind := rowHit
	switch {
	case b.openRow == row:
		d.stats.RowHits++
		d.met.rowHits.Inc()
		latency = d.timing.CAS + d.timing.Burst
	case b.openRow < 0:
		kind = rowMiss
		d.stats.RowMisses++
		d.met.rowMisses.Inc()
		d.stats.ArrayReads++
		d.stats.EnergyPJ += BlockReadEnergyPJ * float64(d.cfg.RowBytes/d.cfg.BlockBytes)
		latency = d.timing.ArrayRead + d.timing.CAS + d.timing.Burst
	default:
		// Conflict: evict the open row (array write if dirty), then
		// activate the new one.
		kind = rowConflict
		d.stats.RowMisses++
		d.met.rowMisses.Inc()
		d.met.bankConflicts.Inc()
		evict := sim.Time(0)
		if b.dirty {
			evict = d.timing.ArrayWrite
			d.recordArrayWrite(idx, b.openRow)
		}
		d.stats.ArrayReads++
		d.stats.EnergyPJ += BlockReadEnergyPJ * float64(d.cfg.RowBytes/d.cfg.BlockBytes)
		latency = evict + d.timing.ArrayRead + d.timing.CAS + d.timing.Burst
	}

	start := b.res.Acquire(at, latency)
	if d.met.accessNS != nil {
		d.met.accessNS.Observe((start + latency - at).Float64Nanos())
		d.met.bankWaitNS.Observe((start - at).Float64Nanos())
	}
	if d.tr.rec != nil {
		pid := trace.ChannelPID(d.cfg.Channel)
		if start > reqAt {
			d.tr.rec.Span(pid, d.tr.banks[idx], trace.CatQueue, d.tr.wait, reqAt, start)
		}
		d.tr.rec.Span(pid, d.tr.banks[idx], trace.CatPCM, d.tr.access[kind], start, start+latency,
			trace.Int(trace.KeyRow, row), trace.Bool(trace.KeyWrite, write))
	}
	if b.openRow != row {
		// A freshly activated row starts clean; the previous row's dirty
		// state was resolved by the eviction above.
		b.dirty = false
	}
	b.openRow = row
	b.lastAccess = start + latency
	if write {
		b.dirty = true
		d.stats.BlockWrites++
	} else {
		d.stats.BlockReads++
	}
	d.stats.EnergyPJ += RowBufferEnergyPJ
	return start + latency
}

// FlushRows closes every open row, writing back dirty ones. Used at end of
// simulation so energy/wear accounting is complete.
func (d *Device) FlushRows() {
	for i := range d.banks {
		b := &d.banks[i]
		if b.openRow >= 0 && b.dirty {
			d.recordArrayWrite(i, b.openRow)
		}
		b.openRow = -1
		b.dirty = false
	}
}

// Stats returns a copy of the counters.
func (d *Device) Stats() Stats { return d.stats }

// MaxWear returns the highest per-row array write count.
func (d *Device) MaxWear() uint64 { return d.maxWear }

// WornRows returns the number of distinct rows that received array writes.
func (d *Device) WornRows() int { return len(d.wear) }

// RowHitRate returns hits / accesses.
func (d *Device) RowHitRate() float64 {
	if d.stats.Accesses == 0 {
		return 0
	}
	return float64(d.stats.RowHits) / float64(d.stats.Accesses)
}

// LifetimeYears estimates device lifetime from the observed peak wear rate:
// endurance / (maxWear / elapsed). Returns +Inf-like large value when no
// wear occurred.
func (d *Device) LifetimeYears(elapsed sim.Time) float64 {
	if d.maxWear == 0 || elapsed <= 0 {
		return 1e12
	}
	writesPerSecond := float64(d.maxWear) / (float64(elapsed) / float64(sim.Second))
	seconds := CellWriteEndurance / writesPerSecond
	return seconds / (365.25 * 24 * 3600)
}

// Reset clears all state and counters.
func (d *Device) Reset() {
	for i := range d.banks {
		d.banks[i].res.Reset()
		d.banks[i].openRow = -1
		d.banks[i].dirty = false
		d.banks[i].lastAccess = 0
	}
	d.stats = Stats{}
	d.wear = make(map[uint64]uint64)
	d.maxWear = 0
}

// WearMap returns a copy of per-(bank,row) wear counts; keys encode
// bank<<40|row. Primarily for diagnostics and tests.
func (d *Device) WearMap() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(d.wear))
	for k, v := range d.wear {
		out[k] = v
	}
	return out
}
