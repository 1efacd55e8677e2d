// Scoring code: everything here touches the ground-truth request schedule,
// either to plant the attacker's known-plaintext anchors or to judge what
// the inference pipeline recovered. Every function carries the
// //obfus:scoring directive, which is what exempts it from the wireonly
// analyzer's ground-truth ban.
package leakage

import (
	"obfusmem/internal/attack"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/stats"
	"obfusmem/internal/trace"
)

// AnchorFraction and anchorMax bound the attacker's known-plaintext budget:
// the membus attack's critical-page whittling gives the adversary a small
// set of accesses whose addresses it primed itself, not the whole schedule.
const (
	AnchorFraction = 0.10
	anchorMax      = 400
)

// AlignToWire maps each issued request to the first unconsumed proc->mem
// command transfer at or after its issue time, returning one wire index per
// request (-1 when the trace ran out). The mapping is monotonic: alignment
// is the scoring oracle that says which wire event a request became.
//
// Scoring: consumes the ground-truth request schedule.
//
//obfus:scoring
func AlignToWire(wire []attack.Wire, issued []Issued) []int {
	align := make([]int, len(issued))
	cmds := cmdIndices(wire)
	k := 0
	for i, rq := range issued {
		for k < len(cmds) && wire[cmds[k]].At < rq.At {
			k++
		}
		if k < len(cmds) {
			align[i] = cmds[k]
			k++
		} else {
			align[i] = -1
		}
	}
	return align
}

// PlantAnchors gives the recovery pipeline its known-plaintext footholds:
// the first K aligned requests become anchors (K = min(frac·n, max)). It
// returns the anchors and a parallel anchored[i] marker so scoring can
// exclude them — an attacker is not credited for recovering what it already
// knew.
//
// Scoring: reads true addresses to build the anchor set.
//
//obfus:scoring
func PlantAnchors(wire []attack.Wire, issued []Issued, align []int) ([]Anchor, []bool) {
	k := int(AnchorFraction * float64(len(issued)))
	if k > anchorMax {
		k = anchorMax
	}
	anchors := make([]Anchor, 0, k)
	anchored := make([]bool, len(issued))
	for i, rq := range issued {
		if len(anchors) >= k {
			break
		}
		if align[i] < 0 {
			continue
		}
		anchors = append(anchors, Anchor{WireIndex: align[i], Row: rq.Addr / RowBytes})
		anchored[i] = true
	}
	return anchors, anchored
}

// RecoveryScore is the address-recovery verdict: Accuracy = Correct/Scored
// over the non-anchored requests the pipeline guessed at.
type RecoveryScore struct {
	Accuracy float64
	Correct  int
	Scored   int
}

// ScoreRecovery judges the pipeline's row guesses against the true request
// schedule through the alignment map. Anchored requests are excluded;
// unaligned or unguessed requests count as misses (the attacker recovered
// nothing for them).
//
// Scoring: compares guesses to true addresses.
//
//obfus:scoring
func ScoreRecovery(guesses []RowGuess, align []int, issued []Issued, anchored []bool) RecoveryScore {
	var s RecoveryScore
	for i, rq := range issued {
		if anchored[i] {
			continue
		}
		s.Scored++
		if align[i] < 0 {
			continue
		}
		g := guesses[align[i]]
		if g.Guessed && g.Row == rq.Addr/RowBytes {
			s.Correct++
		}
	}
	if s.Scored > 0 {
		s.Accuracy = float64(s.Correct) / float64(s.Scored)
	}
	return s
}

// MIResult carries both mutual-information estimates: the Miller–Madow
// corrected figure (headline) and the raw plug-in value it corrects.
type MIResult struct {
	BitsPerRequest       float64
	PluginBitsPerRequest float64
}

// RequestStreamMI estimates the mutual information between the issued
// request stream and the observed wire trace: the joint distribution of
// (request symbol, wire symbol of the aligned transfer), with requests that
// produced no visible transfer mapped to a dedicated "none" symbol. The
// Miller–Madow value is clamped at zero — MI is non-negative, and the
// correction can overshoot on independent streams.
//
// Scoring: pairs true request symbols with wire observations.
//
//obfus:scoring
func RequestStreamMI(wire []attack.Wire, issued []Issued, align []int) MIResult {
	// Precompute each command transfer's predecessor time on its channel so
	// wireSymbol sees the same inter-arrival the attacker would.
	prevCmdAt := make(map[int]sim.Time, len(wire))
	var lastAt [4]sim.Time
	for _, i := range cmdIndices(wire) {
		ch := wire[i].Channel & 3
		prevCmdAt[i] = lastAt[ch]
		lastAt[ch] = wire[i].At
	}

	j := stats.NewJoint()
	for i, rq := range issued {
		ws := noneSymbol
		if align[i] >= 0 {
			ws = wireSymbol(wire[align[i]], prevCmdAt[align[i]])
		}
		j.Add(requestSymbol(rq), ws)
	}
	mi := MIResult{
		BitsPerRequest:       j.MutualInformationBitsMM(),
		PluginBitsPerRequest: j.MutualInformationBits(),
	}
	if mi.BitsPerRequest < 0 {
		mi.BitsPerRequest = 0
	}
	return mi
}

// Evaluation bundles one run's leakage metrics. Features feeds the
// cross-run workload classifier; the scalar fields are per-run.
type Evaluation struct {
	MI          MIResult
	Recovery    RecoveryScore
	Features    []float64
	WirePackets int
	Anchors     int
}

// Evaluate runs the full per-trace pipeline — feature extraction, anchor
// planting, address recovery, recovery scoring, MI estimation — and records
// a span per phase on rec (nil-safe) over the observed wire window.
//
// Scoring: orchestrates scoring stages over the ground truth.
//
//obfus:scoring
func Evaluate(wire []attack.Wire, issued []Issued, rec *trace.Recorder) Evaluation {
	var begin, end sim.Time
	if len(wire) > 0 {
		begin, end = wire[0].At, wire[len(wire)-1].At
	}
	track := rec.Track("leakage")
	span := func(name names.Name) {
		rec.Span(trace.PIDCPU, track, trace.CatOther, rec.Name(name), begin, end)
	}

	var ev Evaluation
	ev.WirePackets = len(wire)

	span(names.SpanLeakFeatures)
	ev.Features = TraceFeatures(wire)

	span(names.SpanLeakRecover)
	align := AlignToWire(wire, issued)
	anchors, anchored := PlantAnchors(wire, issued, align)
	ev.Anchors = len(anchors)
	guesses := RecoverRows(wire, anchors)

	span(names.SpanLeakScore)
	ev.Recovery = ScoreRecovery(guesses, align, issued, anchored)

	span(names.SpanLeakMI)
	ev.MI = RequestStreamMI(wire, issued, align)
	return ev
}
