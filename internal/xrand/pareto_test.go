package xrand_test

import (
	"math"
	"testing"

	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// paretoSpec is the bounded Pareto inverse CDF as it was computed before
// the per-distribution constants were hoisted out of the draw: three
// math.Pow calls per sample. BoundedPareto.Sample must match it bit for
// bit, because workloads truncate the sample to an integer stride and a
// one-ulp difference can move an address.
func paretoSpec(r *xrand.Rand, alpha, lo, hi float64) float64 {
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

func TestRandWithNext(t *testing.T) {
	for _, x := range []uint64{0, 1, 0x9e3779b97f4a7c15, ^uint64(0)} {
		if got := xrand.RandWithNext(x).Uint64(); got != x {
			t.Errorf("RandWithNext(%#x).Uint64() = %#x", x, got)
		}
	}
}

// FuzzBoundedParetoMatchesSpec checks Sample against paretoSpec over
// (alpha, lo, hi, seed). The first draw takes its uniform variate
// straight from seed's top 53 bits, so u = 0 and u just below 1 are
// reachable; sixteen more come from xrand.New(seed).
func FuzzBoundedParetoMatchesSpec(f *testing.F) {
	// The workload stride distribution of every profile: one row (16
	// blocks) up to the footprint in blocks.
	for _, p := range workload.SPEC2006() {
		f.Add(1.1, 16.0, float64(uint64(p.FootprintMB)<<20/64), uint64(p.FootprintMB))
	}
	f.Add(1.1, 16.0, float64(1<<14), uint64(0))  // u = 0
	f.Add(1.1, 16.0, float64(1<<14), ^uint64(0)) // u = 1 - 2^-53
	f.Add(math.Nextafter(1, 2), 16.0, float64(1<<20), uint64(7))
	f.Add(math.Nextafter(1, 0), 16.0, float64(1<<20), ^uint64(0))
	f.Add(1+1e-9, 1.0, 1024.0, uint64(0))
	f.Fuzz(func(t *testing.T, alpha, lo, hi float64, seed uint64) {
		if !(lo > 0 && hi > lo) {
			t.Skip("NewBoundedPareto rejects these bounds")
		}
		d := xrand.NewBoundedPareto(alpha, lo, hi)
		check := func(draw int, a, b *xrand.Rand) {
			got, want := d.Sample(a), paretoSpec(b, alpha, lo, hi)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("draw %d of (%v, %v, %v, %#x): Sample %v (%#x), spec %v (%#x)",
					draw, alpha, lo, hi, seed, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		check(0, xrand.RandWithNext(seed), xrand.RandWithNext(seed))
		a, b := xrand.New(seed), xrand.New(seed)
		for i := 1; i <= 16; i++ {
			check(i, a, b)
		}
	})
}
