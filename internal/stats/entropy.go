// Information-theoretic estimators for the leakage observatory: plug-in
// (maximum-likelihood) entropy and mutual information over discrete symbol
// streams, plus the Miller–Madow bias correction.
//
// The plug-in entropy of an empirical distribution underestimates the true
// entropy by roughly (K-1)/(2n ln 2) bits (K = support size, n = samples);
// for mutual information the bias goes the other way — MI is *over*estimated
// because the joint support is undersampled relative to the marginals, which
// is exactly the failure mode of naive wire-trace MI (every unique
// ciphertext looks informative). Miller–Madow corrects each entropy term by
// its first-order bias, so the corrected MI
//
//	I_MM = H_MM(X) + H_MM(Y) - H_MM(X,Y)
//	     = I_plugin + (Kx + Ky - Kxy - 1) / (2n ln 2)
//
// shrinks toward zero when the joint support is near the product of the
// marginals (independence) and is nearly unchanged when the joint support
// matches the marginals (determinism). Both estimators are exposed; reports
// quote the corrected one and carry the plug-in value for reference.
//
// Both tables keep their observations as one flat slice of symbols and
// count them by sorting: a sorted slice is a run-length encoding of the
// count table, visited in ascending key order, so the floating-point sums
// are bit-identical run to run (the determinism analyzer checks this
// package) and no hash map is built per symbol.
package stats

import (
	"math"
	"math/bits"
	"slices"
)

// Hist is a frequency table over discrete symbols.
type Hist struct {
	syms []uint64
	// Entropy sum and support of the first done observations, cached
	// until the next Add.
	done    int
	sum     float64
	support int
}

// NewHist returns an empty frequency table.
func NewHist() *Hist { return &Hist{} }

// Add records one observation of the symbol.
func (h *Hist) Add(sym uint64) { h.syms = append(h.syms, sym) }

// N returns the number of observations.
func (h *Hist) N() int { return len(h.syms) }

// tally sorts the observations and caches their count table's entropy sum
// and support.
func (h *Hist) tally() {
	if h.done == len(h.syms) {
		return
	}
	slices.Sort(h.syms)
	h.sum, h.support = runSum(h.syms, ^uint64(0))
	h.done = len(h.syms)
}

// Support returns the number of distinct observed symbols.
func (h *Hist) Support() int {
	h.tally()
	return h.support
}

// runSum walks a sorted key slice as a run-length encoded count table,
// where keys equal under mask share a cell, and returns sum c*log2(c) over
// the cells in ascending key order together with the number of cells.
func runSum(sorted []uint64, mask uint64) (sum float64, cells int) {
	for i := 0; i < len(sorted); {
		k := sorted[i] & mask
		j := i + 1
		for j < len(sorted) && sorted[j]&mask == k {
			j++
		}
		c := float64(j - i)
		sum += c * math.Log2(c)
		cells++
		i = j
	}
	return sum, cells
}

// entropyBits computes the plug-in entropy (bits) of a count table with
// total n from its runSum: log2(n) - (1/n) sum c*log2(c).
func entropyBits(sum float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Log2(float64(n)) - sum/float64(n)
}

// millerMadowBits is the first-order bias correction (K-1)/(2n ln 2) in
// bits, added to a plug-in entropy.
func millerMadowBits(support, n int) float64 {
	if n <= 0 || support <= 1 {
		return 0
	}
	return float64(support-1) / (2 * float64(n) * math.Ln2)
}

// EntropyBits returns the plug-in entropy in bits.
func (h *Hist) EntropyBits() float64 {
	h.tally()
	return entropyBits(h.sum, len(h.syms))
}

// EntropyBitsMM returns the Miller–Madow corrected entropy in bits.
func (h *Hist) EntropyBitsMM() float64 {
	return h.EntropyBits() + millerMadowBits(h.Support(), len(h.syms))
}

// Joint accumulates paired observations (x, y) for mutual-information
// estimation. Symbols must fit in 32 bits (the pair packs into one uint64
// key); discretized wire-trace alphabets are far smaller.
type Joint struct {
	keys []uint64 // x<<32 | y, one per observation
	// Entropy terms and supports of the first done observations, cached
	// until the next Add.
	done        int
	hx, hy, hxy float64
	kx, ky, kxy int
}

// NewJoint returns an empty joint frequency table.
func NewJoint() *Joint { return &Joint{} }

// Grow reserves room for n more observations, so a caller that knows its
// sample count adds them without reallocating.
func (j *Joint) Grow(n int) { j.keys = slices.Grow(j.keys, n) }

// Add records one paired observation. Symbols are folded to 32 bits.
func (j *Joint) Add(x, y uint64) {
	j.keys = append(j.keys, (x&0xffffffff)<<32|y&0xffffffff)
}

// N returns the number of paired observations.
func (j *Joint) N() int { return len(j.keys) }

// tally computes all three entropy terms and supports in two sorts of the
// packed keys. Sorted x<<32|y keys give the joint cells and, grouped on
// their high half, the x marginal, both in ascending key order; swapping
// the halves and sorting again gives the y marginal the same way. The key
// multiset is unchanged, so later Adds and tallies stay valid.
func (j *Joint) tally() {
	n := len(j.keys)
	if j.done == n {
		return
	}
	const hi = 0xffffffff << 32
	slices.Sort(j.keys)
	sxy, kxy := runSum(j.keys, ^uint64(0))
	sx, kx := runSum(j.keys, hi)
	for i, k := range j.keys {
		j.keys[i] = bits.RotateLeft64(k, 32)
	}
	slices.Sort(j.keys)
	sy, ky := runSum(j.keys, hi)
	for i, k := range j.keys {
		j.keys[i] = bits.RotateLeft64(k, 32)
	}
	j.hx, j.hy, j.hxy = entropyBits(sx, n), entropyBits(sy, n), entropyBits(sxy, n)
	j.kx, j.ky, j.kxy = kx, ky, kxy
	j.done = n
}

// EntropyXBits returns the plug-in marginal entropy H(X) in bits.
func (j *Joint) EntropyXBits() float64 {
	j.tally()
	return j.hx
}

// EntropyYBits returns the plug-in marginal entropy H(Y) in bits.
func (j *Joint) EntropyYBits() float64 {
	j.tally()
	return j.hy
}

// MutualInformationBits returns the plug-in estimate of I(X;Y) in bits:
// H(X) + H(Y) - H(X,Y).
func (j *Joint) MutualInformationBits() float64 {
	j.tally()
	return j.hx + j.hy - j.hxy
}

// MutualInformationBitsMM returns the Miller–Madow corrected estimate of
// I(X;Y) in bits: each of the three entropy terms gets its own first-order
// bias correction. The correction can push a small-sample estimate below
// zero; callers reporting a leakage score should clamp at zero (true MI is
// nonnegative).
func (j *Joint) MutualInformationBitsMM() float64 {
	j.tally()
	n := len(j.keys)
	return j.hx + j.hy - j.hxy +
		millerMadowBits(j.kx, n) + millerMadowBits(j.ky, n) - millerMadowBits(j.kxy, n)
}

// ConditionalEntropyBits returns the plug-in H(X|Y) in bits:
// H(X,Y) - H(Y), the attacker's residual uncertainty about the request
// stream given the wire trace.
func (j *Joint) ConditionalEntropyBits() float64 {
	j.tally()
	return j.hxy - j.hy
}
