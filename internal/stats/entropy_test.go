package stats

import (
	"math"
	"slices"
	"testing"

	"obfusmem/internal/xrand"
)

// TestEntropyAnalytic checks the plug-in estimator against closed-form
// values on exact empirical distributions.
func TestEntropyAnalytic(t *testing.T) {
	// Uniform over K symbols: H = log2 K.
	for _, k := range []int{2, 4, 16, 256} {
		h := NewHist()
		for s := 0; s < k; s++ {
			for c := 0; c < 5; c++ {
				h.Add(uint64(s))
			}
		}
		want := math.Log2(float64(k))
		if got := h.EntropyBits(); math.Abs(got-want) > 1e-12 {
			t.Errorf("uniform(%d): H = %v, want %v", k, got, want)
		}
	}

	// Point mass: H = 0.
	h := NewHist()
	for i := 0; i < 100; i++ {
		h.Add(7)
	}
	if got := h.EntropyBits(); got != 0 {
		t.Errorf("point mass: H = %v, want 0", got)
	}
	if got := h.EntropyBitsMM(); got != 0 {
		t.Errorf("point mass: H_MM = %v, want 0 (support 1 gets no correction)", got)
	}

	// Bernoulli(1/4): H = 2 - 3/4*log2(3).
	h = NewHist()
	for i := 0; i < 4; i++ {
		h.Add(uint64(i % 4 / 3)) // 3 zeros, 1 one
	}
	want := 2 - 0.75*math.Log2(3)
	if got := h.EntropyBits(); math.Abs(got-want) > 1e-12 {
		t.Errorf("bernoulli(1/4): H = %v, want %v", got, want)
	}

	// Empty and zero-count edge cases.
	if got := NewHist().EntropyBits(); got != 0 {
		t.Errorf("empty: H = %v, want 0", got)
	}
}

// TestMutualInformationAnalytic checks the joint estimator on pairs with
// known MI.
func TestMutualInformationAnalytic(t *testing.T) {
	// Independent pair with exact product counts: MI = 0.
	j := NewJoint()
	for x := 0; x < 4; x++ {
		for y := 0; y < 8; y++ {
			for c := 0; c < 3; c++ {
				j.Add(uint64(x), uint64(y))
			}
		}
	}
	if got := j.MutualInformationBits(); math.Abs(got) > 1e-12 {
		t.Errorf("independent pair: plug-in MI = %v, want 0", got)
	}
	// MM correction on the exact product table is negative (joint support =
	// product of marginals), pulling the estimate below zero — the clamp is
	// the caller's job.
	if got := j.MutualInformationBitsMM(); got > 1e-12 {
		t.Errorf("independent pair: MM MI = %v, want <= 0", got)
	}
	// H(X|Y) = H(X) for independent pairs.
	if got, want := j.ConditionalEntropyBits(), j.EntropyXBits(); math.Abs(got-want) > 1e-12 {
		t.Errorf("independent pair: H(X|Y) = %v, want H(X) = %v", got, want)
	}

	// Perfectly correlated pair: MI = H(X) = log2 K, H(X|Y) = 0.
	j = NewJoint()
	const k = 16
	for x := 0; x < k; x++ {
		for c := 0; c < 2; c++ {
			j.Add(uint64(x), uint64(x))
		}
	}
	want := math.Log2(k)
	if got := j.MutualInformationBits(); math.Abs(got-want) > 1e-12 {
		t.Errorf("correlated pair: plug-in MI = %v, want %v", got, want)
	}
	if got := j.ConditionalEntropyBits(); math.Abs(got) > 1e-12 {
		t.Errorf("correlated pair: H(X|Y) = %v, want 0", got)
	}
	// MM correction is tiny for matched supports (Kx = Ky = Kxy): the
	// corrected estimate stays within half a bit's worth of correction.
	if got := j.MutualInformationBitsMM(); math.Abs(got-want) > float64(k)/(2*float64(j.N())*math.Ln2) {
		t.Errorf("correlated pair: MM MI = %v strays from %v", got, want)
	}
}

// TestMillerMadowConvergence draws small samples from a uniform source and
// checks that (a) the plug-in estimate is biased low, (b) Miller–Madow is
// closer to the truth on average, and (c) both converge as n grows.
func TestMillerMadowConvergence(t *testing.T) {
	const k = 32
	truth := math.Log2(k)
	rng := xrand.New(1234)

	meanErr := func(n, trials int) (plugin, mm float64) {
		for tr := 0; tr < trials; tr++ {
			h := NewHist()
			for i := 0; i < n; i++ {
				h.Add(uint64(rng.Intn(k)))
			}
			plugin += truth - h.EntropyBits() // bias is positive (underestimate)
			mm += math.Abs(truth - h.EntropyBitsMM())
		}
		return plugin / float64(trials), mm / float64(trials)
	}

	smallPlugin, smallMM := meanErr(64, 200)
	if smallPlugin <= 0 {
		t.Errorf("plug-in entropy not biased low on small samples: mean bias %v", smallPlugin)
	}
	if smallMM >= smallPlugin {
		t.Errorf("Miller–Madow |error| %v not better than plug-in bias %v at n=64", smallMM, smallPlugin)
	}

	largePlugin, largeMM := meanErr(4096, 50)
	if largePlugin >= smallPlugin {
		t.Errorf("plug-in bias did not shrink with n: %v at n=64 vs %v at n=4096", smallPlugin, largePlugin)
	}
	if largeMM > 0.02 {
		t.Errorf("Miller–Madow |error| %v at n=4096, want < 0.02 bits", largeMM)
	}
}

// TestJointSymbolFolding confirms symbols above 32 bits fold rather than
// collide with the packing of the other coordinate.
func TestJointSymbolFolding(t *testing.T) {
	j := NewJoint()
	j.Add(1<<40|5, 9) // folds to x=5
	j.Add(5, 9)
	if j.N() != 2 {
		t.Fatalf("N = %d", j.N())
	}
	if got := j.EntropyXBits(); got != 0 {
		t.Errorf("folded symbols should coincide: H(X) = %v, want 0", got)
	}
}

// refHist and refJoint are the map-backed count tables the sorted-slice
// Hist and Joint replaced, kept verbatim as the reference for
// TestTablesMatchMapReference.
type refHist struct {
	counts map[uint64]int
	n      int
}

func newRefHist() *refHist { return &refHist{counts: make(map[uint64]int)} }

func (h *refHist) Add(sym uint64) {
	h.counts[sym]++
	h.n++
}

func (h *refHist) EntropyBits() float64 { return refEntropyBits(refSortedCounts(h.counts), h.n) }

func (h *refHist) EntropyBitsMM() float64 {
	return h.EntropyBits() + millerMadowBits(len(h.counts), h.n)
}

type refJoint struct {
	xy   map[uint64]int
	x, y map[uint64]int
	n    int
}

func newRefJoint() *refJoint {
	return &refJoint{xy: make(map[uint64]int), x: make(map[uint64]int), y: make(map[uint64]int)}
}

func (j *refJoint) Add(x, y uint64) {
	x &= 0xffffffff
	y &= 0xffffffff
	j.xy[x<<32|y]++
	j.x[x]++
	j.y[y]++
	j.n++
}

func refSortedCounts(m map[uint64]int) []int {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func refEntropyBits(counts []int, n int) float64 {
	if n <= 0 {
		return 0
	}
	var s float64
	for _, c := range counts {
		if c > 0 {
			s += float64(c) * math.Log2(float64(c))
		}
	}
	return math.Log2(float64(n)) - s/float64(n)
}

func (j *refJoint) EntropyXBits() float64 { return refEntropyBits(refSortedCounts(j.x), j.n) }
func (j *refJoint) EntropyYBits() float64 { return refEntropyBits(refSortedCounts(j.y), j.n) }

func (j *refJoint) MutualInformationBits() float64 {
	return j.EntropyXBits() + j.EntropyYBits() - refEntropyBits(refSortedCounts(j.xy), j.n)
}

func (j *refJoint) MutualInformationBitsMM() float64 {
	return j.MutualInformationBits() +
		millerMadowBits(len(j.x), j.n) + millerMadowBits(len(j.y), j.n) - millerMadowBits(len(j.xy), j.n)
}

func (j *refJoint) ConditionalEntropyBits() float64 {
	return refEntropyBits(refSortedCounts(j.xy), j.n) - j.EntropyYBits()
}

// TestTablesMatchMapReference is the differential check of the sorted-slice
// count tables against the map-backed reference: on random streams over
// alphabets from one symbol to wider than 32 bits, with correlated and
// independent pairs, every entropy, mutual-information and support figure
// must agree to the bit, including when queries interleave with Adds.
func TestTablesMatchMapReference(t *testing.T) {
	rng := xrand.New(99)
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v (%#x), reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(3000)
		kx := uint64(1) << rng.Intn(12)
		ky := uint64(1) << rng.Intn(12)
		wide := trial%3 == 0 // symbols above 32 bits must fold
		corr := trial%2 == 0 // y depends on x
		h, rh := NewHist(), newRefHist()
		j, rj := NewJoint(), newRefJoint()
		j.Grow(n / 2)
		for i := 0; i < n; i++ {
			x := rng.Uint64n(kx)
			y := rng.Uint64n(ky)
			if corr {
				y = (x*7 + rng.Uint64n(2)) % ky
			}
			if wide {
				x |= rng.Uint64() << 32
				y |= rng.Uint64() << 40
			}
			h.Add(x)
			rh.Add(x)
			j.Add(x, y)
			rj.Add(x, y)
			if i == n/3 || i == n-1 {
				same("Hist.EntropyBits", h.EntropyBits(), rh.EntropyBits())
				same("Hist.EntropyBitsMM", h.EntropyBitsMM(), rh.EntropyBitsMM())
				if h.Support() != len(rh.counts) || h.N() != rh.n {
					t.Errorf("Hist support/N = %d/%d, reference %d/%d", h.Support(), h.N(), len(rh.counts), rh.n)
				}
				same("EntropyXBits", j.EntropyXBits(), rj.EntropyXBits())
				same("EntropyYBits", j.EntropyYBits(), rj.EntropyYBits())
				same("MutualInformationBits", j.MutualInformationBits(), rj.MutualInformationBits())
				same("MutualInformationBitsMM", j.MutualInformationBitsMM(), rj.MutualInformationBitsMM())
				same("ConditionalEntropyBits", j.ConditionalEntropyBits(), rj.ConditionalEntropyBits())
				if j.N() != rj.n {
					t.Errorf("Joint N = %d, reference %d", j.N(), rj.n)
				}
			}
		}
	}
}
