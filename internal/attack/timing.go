package attack

import (
	"math"
	"sort"

	"obfusmem/internal/bus"
	"obfusmem/internal/sim"
)

// Timing side-channel analysis (paper Section 6.2): even with contents,
// addresses, types, and channels obfuscated, the *times* at which requests
// appear can fingerprint a program. These metrics quantify that leakage
// and verify the timing-oblivious extension removes it.

// eventClusterWindow collapses the back-to-back packets of one request
// pair into a single observed "event", the natural preprocessing any
// timing attacker applies.
const eventClusterWindow = 5 * sim.Nanosecond

// interArrivals collects request-direction event inter-arrival times on
// one channel (all channels when ch < 0).
func (o *Observer) interArrivals(ch int) []sim.Time {
	var times []sim.Time
	for _, w := range o.wire {
		if w.Dir != bus.ProcToMem {
			continue
		}
		if ch >= 0 && w.Channel != ch {
			continue
		}
		times = append(times, w.At)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	// Cluster into events.
	var events []sim.Time
	for _, t := range times {
		if len(events) == 0 || t-events[len(events)-1] > eventClusterWindow {
			events = append(events, t)
		}
	}
	out := make([]sim.Time, 0, len(events))
	for i := 1; i < len(events); i++ {
		out = append(out, events[i]-events[i-1])
	}
	return out
}

// InterArrivalHistogram returns the binned distribution of request
// inter-arrival times (bin width in picoseconds), normalised to sum to 1.
func (o *Observer) InterArrivalHistogram(bin sim.Time) map[int64]float64 {
	if bin <= 0 {
		bin = 10 * sim.Nanosecond
	}
	gaps := o.interArrivals(-1)
	out := make(map[int64]float64)
	if len(gaps) == 0 {
		return out
	}
	for _, g := range gaps {
		out[int64(g/bin)] += 1
	}
	for k := range out {
		out[k] /= float64(len(gaps))
	}
	return out
}

// TimingRegularity returns the probability mass of the modal inter-arrival
// bin: ~1.0 for a fixed-cadence (timing-oblivious) stream, low for bursty
// program-driven traffic.
func (o *Observer) TimingRegularity(bin sim.Time) float64 {
	h := o.InterArrivalHistogram(bin)
	best := 0.0
	for _, p := range h {
		if p > best {
			best = p
		}
	}
	return best
}

// TimingDistance returns the total-variation distance between two traces'
// inter-arrival distributions: the attacker's advantage at telling which of
// two programs produced a trace from timing alone.
func TimingDistance(a, b *Observer, bin sim.Time) float64 {
	pa := a.InterArrivalHistogram(bin)
	pb := b.InterArrivalHistogram(bin)
	keys := make(map[int64]bool)
	for k := range pa {
		keys[k] = true
	}
	for k := range pb {
		keys[k] = true
	}
	d := 0.0
	for k := range keys {
		d += math.Abs(pa[k] - pb[k])
	}
	return d / 2
}
