// Package attack implements the adversary of the paper's threat model
// (Section 2.1): a passive observer that taps the exposed memory bus and
// tries to recover the access pattern, and an active tamperer that
// modifies, drops, replays, or injects bus traffic.
//
// The observer works only from the wire view of packets (ciphertext command
// fields, packet sizes, channel pins, timing). Ground-truth fields are used
// solely to *score* the attacks, mirroring how the paper's security
// analysis (Section 6.1) judges what each scheme leaks.
package attack

import (
	"math"
	"slices"
	"sort"

	"obfusmem/internal/bus"
	"obfusmem/internal/sim"
)

// Observer is a passive bus tap. It records each transfer straight into
// two parallel traces: the attacker-visible Wire view and the Truth used
// only for scoring.
type Observer struct {
	wire     []Wire
	truth    []Truth
	limit    int
	channels int
}

// NewObserver returns an observer retaining up to limit packets.
func NewObserver(channels, limit int) *Observer {
	return &Observer{limit: limit, channels: channels}
}

// Observe implements bus.Observer.
func (o *Observer) Observe(at sim.Time, p *bus.Packet) {
	if len(o.wire) >= o.limit {
		return
	}
	if len(o.wire) == cap(o.wire) {
		// Double both traces together. A run records thousands of
		// packets, and append's 1.25x steps past 256 elements would copy
		// each trace several times over.
		o.wire = slices.Grow(o.wire, max(len(o.wire), 1024))
		o.truth = slices.Grow(o.truth, max(len(o.truth), 1024))
	}
	o.wire = append(o.wire, Wire{
		At:        at,
		Channel:   p.Channel,
		Dir:       p.Dir,
		Cmd:       p.CmdCipher,
		HasCmd:    p.HasCmd,
		Size:      p.WireBytes(),
		Plaintext: p.Plaintext,
	})
	o.truth = append(o.truth, Truth{Type: p.Type, Addr: p.Addr, Dummy: p.IsDummy})
}

// Packets returns the number of recorded transfers.
func (o *Observer) Packets() int { return len(o.wire) }

// obsKey is the attacker's canonical view of one command field: on a
// plaintext bus the attacker parses out the address (ignoring the type
// byte); on an encrypted bus all 16 bytes are opaque.
func (w *Wire) obsKey() [bus.CmdBytes]byte {
	if !w.Plaintext {
		return w.Cmd
	}
	var k [bus.CmdBytes]byte
	copy(k[:8], w.Cmd[1:9])
	return k
}

// TemporalLeakage measures how much of the temporal reuse pattern is
// visible: the fraction of observed command fields that repeat an earlier
// command field. On a plaintext bus this approaches the program's true
// reuse rate; under CTR encryption it must be ~0 (Observation 1).
func (o *Observer) TemporalLeakage() float64 {
	seen := make(map[[bus.CmdBytes]byte]bool)
	repeats, total := 0, 0
	for i := range o.wire {
		w := &o.wire[i]
		if !w.HasCmd || w.Dir != bus.ProcToMem {
			continue
		}
		total++
		k := w.obsKey()
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	if total == 0 {
		return 0
	}
	return float64(repeats) / float64(total)
}

// FootprintEstimate returns the attacker's best estimate of the number of
// distinct blocks the program touched: the count of distinct command fields
// seen. Scored against truth by FootprintError.
func (o *Observer) FootprintEstimate() int {
	distinct := make(map[[bus.CmdBytes]byte]bool)
	for i := range o.wire {
		if w := &o.wire[i]; w.HasCmd && w.Dir == bus.ProcToMem {
			distinct[w.obsKey()] = true
		}
	}
	return len(distinct)
}

// TrueFootprint returns the real number of distinct non-dummy addresses.
func (o *Observer) TrueFootprint() int {
	distinct := make(map[uint64]bool)
	for i, w := range o.wire {
		if w.HasCmd && !o.truth[i].Dummy && w.Dir == bus.ProcToMem {
			distinct[o.truth[i].Addr] = true
		}
	}
	return len(distinct)
}

// FootprintError returns |estimate-truth|/truth; large is good for the
// defender.
func (o *Observer) FootprintError() float64 {
	truth := o.TrueFootprint()
	if truth == 0 {
		return 0
	}
	return math.Abs(float64(o.FootprintEstimate())-float64(truth)) / float64(truth)
}

// ShapeProfile summarises everything a size/direction attacker can extract
// from the trace: the empirical distribution over (direction, wire size)
// per observed transfer. Two workloads are distinguishable by request type
// exactly to the extent their profiles differ.
func (o *Observer) ShapeProfile() map[[2]int]float64 {
	counts := make(map[[2]int]int)
	total := 0
	for _, w := range o.wire {
		counts[[2]int{int(w.Dir), w.Size}]++
		total++
	}
	out := make(map[[2]int]float64, len(counts))
	if total == 0 {
		return out
	}
	for k, n := range counts {
		out[k] = float64(n) / float64(total)
	}
	return out
}

// TotalVariation returns the total-variation distance between two shape
// profiles: the attacker's maximum advantage (over 50/50 guessing) at
// telling which of two workloads produced a trace, using shapes alone.
// 0 means perfectly indistinguishable; 1 means trivially distinguishable.
func TotalVariation(p, q map[[2]int]float64) float64 {
	keys := make(map[[2]int]bool)
	for k := range p {
		keys[k] = true
	}
	for k := range q {
		keys[k] = true
	}
	d := 0.0
	for k := range keys {
		d += math.Abs(p[k] - q[k])
	}
	return d / 2
}

// SpatialCorrelation measures cross-channel localisability (Section 3.4):
// the fraction of observation windows in which exactly one channel carried
// request traffic. 1.0 means every access is localisable to a channel;
// near 0 means channel activity carries no spatial signal.
func (o *Observer) SpatialCorrelation(window sim.Time) float64 {
	if o.channels <= 1 {
		return 0
	}
	type key int64
	active := make(map[key]map[int]bool)
	for _, r := range o.wire {
		if r.Dir != bus.ProcToMem {
			continue
		}
		w := key(r.At / window)
		if active[w] == nil {
			active[w] = make(map[int]bool)
		}
		active[w][r.Channel] = true
	}
	if len(active) == 0 {
		return 0
	}
	lone := 0
	for _, chans := range active {
		if len(chans) == 1 {
			lone++
		}
	}
	return float64(lone) / float64(len(active))
}

// DictionaryAttack mounts the frequency-analysis attack that breaks ECB
// address encryption (Section 3.2): it ranks ciphertext command fields by
// frequency, ranks true addresses by frequency, assumes rank order carries
// over, and reports the fraction of accesses whose address it recovers.
// Under CTR it must recover ~nothing (every ciphertext unique).
func (o *Observer) DictionaryAttack() float64 {
	ctFreq := make(map[[bus.CmdBytes]byte]int)
	ptFreq := make(map[uint64]int)
	type pair struct {
		ct [bus.CmdBytes]byte
		pt uint64
	}
	var stream []pair
	for i := range o.wire {
		w, tr := &o.wire[i], o.truth[i]
		if !w.HasCmd || w.Dir != bus.ProcToMem || tr.Dummy {
			continue
		}
		k := w.obsKey()
		ctFreq[k]++
		ptFreq[tr.Addr]++
		stream = append(stream, pair{k, tr.Addr})
	}
	if len(stream) == 0 {
		return 0
	}
	// Rank both sides by frequency.
	type ctEnt struct {
		k [bus.CmdBytes]byte
		n int
	}
	type ptEnt struct {
		k uint64
		n int
	}
	cts := make([]ctEnt, 0, len(ctFreq))
	for k, n := range ctFreq {
		cts = append(cts, ctEnt{k, n})
	}
	pts := make([]ptEnt, 0, len(ptFreq))
	for k, n := range ptFreq {
		pts = append(pts, ptEnt{k, n})
	}
	sort.Slice(cts, func(i, j int) bool {
		if cts[i].n != cts[j].n {
			return cts[i].n > cts[j].n
		}
		return lessCmd(cts[i].k, cts[j].k)
	})
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].n != pts[j].n {
			return pts[i].n > pts[j].n
		}
		return pts[i].k < pts[j].k
	})
	guess := make(map[[bus.CmdBytes]byte]uint64)
	for i := range cts {
		if i < len(pts) {
			guess[cts[i].k] = pts[i].k
		}
	}
	correct := 0
	for _, p := range stream {
		if guess[p.ct] == p.pt {
			correct++
		}
	}
	return float64(correct) / float64(len(stream))
}

func lessCmd(a, b [bus.CmdBytes]byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// RequestRateOnChannel returns observed proc->mem packets per channel, the
// raw material for inter-channel inference.
func (o *Observer) RequestRateOnChannel() []int {
	counts := make([]int, o.channels)
	for _, w := range o.wire {
		if w.Dir == bus.ProcToMem && w.Channel < o.channels {
			counts[w.Channel]++
		}
	}
	return counts
}
