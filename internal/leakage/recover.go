// The membus-style address-recovery pipeline (inference code, wire-only):
// given the observed command stream and the attacker's known-plaintext
// anchors, produce a row-granular address guess for every command transfer.
//
// The pipeline mirrors the off-chip attack's stages:
//
//   - Channel-occupancy fingerprinting: addresses map to channels by a
//     fixed interleave, so a channel pin localises an access to an address
//     region; the per-channel state the anchors seed is that fingerprint.
//   - Inter-arrival clustering: a deterministic 1-D 2-means splits each
//     channel's command gaps into short (row-hit-like: the access stayed
//     in the open row) and long (row-miss-like: it moved) clusters.
//   - Sequential-stride inference: the modal row delta between consecutive
//     anchors on a channel extrapolates where row-miss accesses moved to.
//
// On a plaintext bus none of that machinery is needed: the command field
// carries the address and the pipeline simply parses it — which is exactly
// why the unprotected and encrypt-only rows of the leakage matrix recover
// nearly everything.
package leakage

import (
	"slices"

	"obfusmem/internal/attack"
	"obfusmem/internal/sim"
)

// RowGuess is the pipeline's verdict on one wire transfer: the inferred
// row (Addr/RowBytes), valid only when Guessed is set.
type RowGuess struct {
	Row     uint64
	Guessed bool
}

// Anchor is one known-plaintext foothold: the attacker knows the true row
// behind the command transfer at WireIndex (it primed that access itself).
type Anchor struct {
	WireIndex int
	Row       uint64
}

// RecoverRows runs the pipeline over the trace and returns one guess per
// wire index (non-command transfers stay unguessed). Anchors must be in
// strictly increasing WireIndex order, as PlantAnchors returns them.
func RecoverRows(wire []attack.Wire, anchors []Anchor) []RowGuess {
	return recoverRows(wire, cmdIndices(wire), anchors)
}

// channelState is one channel's share of the pipeline: its anchor rows and
// command gaps in trace order, the stride and threshold estimated from
// them, and the walk's running position.
type channelState struct {
	rows    []uint64  // anchor rows (stages 1 and 3)
	gaps    []float64 // command inter-arrival gaps, ns (stage 2)
	stride  int64
	thr     float64
	lastRow uint64
	haveRow bool
	prevAt  sim.Time
	started bool
}

// recoverRows is RecoverRows over a prebuilt command index.
func recoverRows(wire []attack.Wire, cmds []int, anchors []Anchor) []RowGuess {
	out := make([]RowGuess, len(wire))
	if len(cmds) == 0 {
		return out
	}

	channels := 1
	for _, i := range cmds {
		if wire[i].Channel+1 > channels {
			channels = wire[i].Channel + 1
		}
	}
	st := make([]channelState, channels)

	// Each channel's rows and gaps are windows of two shared buffers, sized
	// by a counting pass so the appends below never reallocate.
	// An anchor only counts on a command transfer, as the walk meets it.
	onCmd := func(a Anchor) bool {
		return a.WireIndex >= 0 && a.WireIndex < len(wire) && isCmd(&wire[a.WireIndex])
	}
	nRows := make([]int, channels)
	nCmds := make([]int, channels)
	for _, a := range anchors {
		if onCmd(a) {
			nRows[wire[a.WireIndex].Channel]++
		}
	}
	for _, i := range cmds {
		nCmds[wire[i].Channel]++
	}
	rowBuf := make([]uint64, len(anchors))
	gapBuf := make([]float64, len(cmds))
	for ch, r, g := 0, 0, 0; ch < channels; ch++ {
		st[ch].rows = rowBuf[r : r : r+nRows[ch]]
		st[ch].gaps = gapBuf[g : g : g+nCmds[ch]]
		r += nRows[ch]
		g += nCmds[ch]
	}

	// Stage 1+3 seed: per-channel anchor rows in trace order, for the
	// fingerprint and the stride estimate.
	for _, a := range anchors {
		if onCmd(a) {
			s := &st[wire[a.WireIndex].Channel]
			s.rows = append(s.rows, a.Row)
		}
	}
	deltas := make([]int64, 0, len(anchors))
	for ch := range st {
		st[ch].stride = modalDelta(st[ch].rows, deltas)
	}

	// Stage 2: per-channel inter-arrival threshold. The gap pass borrows
	// the walk's prevAt/started and clears them when done.
	for _, i := range cmds {
		s := &st[wire[i].Channel]
		if s.started {
			s.gaps = append(s.gaps, (wire[i].At - s.prevAt).Float64Nanos())
		}
		s.prevAt, s.started = wire[i].At, true
	}
	for ch := range st {
		s := &st[ch]
		s.thr = interArrivalThreshold(s.gaps)
		s.prevAt, s.started = 0, false
	}

	// Walk the command stream, advancing through the anchors in step.
	a := 0
	for _, i := range cmds {
		w := &wire[i]
		s := &st[w.Channel]
		for a < len(anchors) && anchors[a].WireIndex < i {
			a++
		}
		switch {
		case w.Plaintext:
			// Plaintext bus: the address is on the wire (bytes 1..8 of the
			// command field, big-endian), no inference needed.
			var addr uint64
			for b := 0; b < 8; b++ {
				addr = addr<<8 | uint64(w.Cmd[1+b])
			}
			out[i] = RowGuess{Row: addr / RowBytes, Guessed: true}
		case a < len(anchors) && anchors[a].WireIndex == i:
			row := anchors[a].Row
			out[i] = RowGuess{Row: row, Guessed: true}
			s.lastRow, s.haveRow = row, true
		case s.haveRow:
			row := s.lastRow
			if s.started && (w.At-s.prevAt).Float64Nanos() > s.thr {
				// Row-miss-like gap: extrapolate along the modal stride.
				next := int64(row) + s.stride
				if next < 0 {
					next = 0
				}
				row = uint64(next)
			}
			out[i] = RowGuess{Row: row, Guessed: true}
			s.lastRow = row
		}
		s.prevAt, s.started = w.At, true
	}
	return out
}

// interArrivalThreshold separates a channel's command gaps into two
// clusters with a deterministic 1-D 2-means (centroids seeded at min and
// max, fixed iteration count) and returns the midpoint between the final
// centroids. Degenerate inputs put every gap in the short cluster.
func interArrivalThreshold(gaps []float64) float64 {
	if len(gaps) == 0 {
		return 0
	}
	lo, hi := gaps[0], gaps[0]
	for _, g := range gaps {
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	if lo == hi {
		return hi + 1
	}
	c0, c1 := lo, hi
	for iter := 0; iter < 10; iter++ {
		mid := (c0 + c1) / 2
		var s0, s1 float64
		var n0, n1 int
		for _, g := range gaps {
			if g <= mid {
				s0 += g
				n0++
			} else {
				s1 += g
				n1++
			}
		}
		if n0 > 0 {
			c0 = s0 / float64(n0)
		}
		if n1 > 0 {
			c1 = s1 / float64(n1)
		}
	}
	return (c0 + c1) / 2
}

// modalDelta returns the most frequent difference between consecutive
// values (ties broken toward the smaller delta), or 0 with fewer than two
// samples — the stride estimate of the sequential-inference stage. The
// deltas are sorted and counted in scratch's storage (grown if it is short).
func modalDelta(rows []uint64, scratch []int64) int64 {
	deltas := scratch[:0]
	for k := 1; k < len(rows); k++ {
		deltas = append(deltas, int64(rows[k])-int64(rows[k-1]))
	}
	slices.Sort(deltas)
	var best int64
	bestN := 0
	for i := 0; i < len(deltas); {
		j := i + 1
		for j < len(deltas) && deltas[j] == deltas[i] {
			j++
		}
		if j-i > bestN {
			best, bestN = deltas[i], j-i
		}
		i = j
	}
	return best
}
