// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator. Every stochastic component takes
// an explicit *Rand so that whole-system runs are reproducible from a single
// seed, and independent components can draw from independent streams.
//
// The generator is xoshiro256** seeded via splitmix64, following the
// reference constructions by Blackman and Vigna. It is not cryptographically
// secure; cryptographic randomness in the model (key generation, nonces) is
// a *simulation* of hardware TRNGs, for which deterministic reproducibility
// is exactly what we want.
package xrand

import "math"

// SplitMix64 advances the state and returns the next value of the splitmix64
// sequence. It is used for seeding and as a cheap standalone mixer.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns a well-mixed function of x (a one-shot splitmix64 step).
func Mix64(x uint64) uint64 {
	s := x
	return SplitMix64(&s)
}

// Rand is a xoshiro256** generator.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 output of any
	// seed cannot be all zeros across four draws, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Fork derives an independent stream from r identified by id. Streams with
// different ids are statistically independent regardless of how much either
// has been consumed.
func (r *Rand) Fork(id uint64) *Rand {
	return New(r.Uint64() ^ Mix64(id) ^ 0xa5a5a5a55a5a5a5a)
}

//obfus:hotpath
func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
//
//obfus:hotpath
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint32 returns 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
//obfus:hotpath
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's method with a
// rejection step to remove modulo bias. It panics if n == 0.
//
//obfus:hotpath
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n // == (2^64 - n) mod n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform float in [0, 1).
//
//obfus:hotpath
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
//
//obfus:hotpath
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Prob returns true with probability p (clamped to [0,1]).
//
//obfus:hotpath
func (r *Rand) Prob(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
//
//obfus:hotpath
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Avoid log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed value via the Box-Muller transform.
func (r *Rand) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// BoundedPareto is a bounded Pareto distribution on [lo, hi] with shape
// alpha, used to model heavy-tailed spatial strides in workloads. The
// powers of the bounds are computed once, so each Sample costs one
// math.Pow.
type BoundedPareto struct {
	la, ha, hl, e float64
}

// NewBoundedPareto precomputes the constants of a bounded Pareto
// distribution. It panics unless 0 < lo < hi.
func NewBoundedPareto(alpha, lo, hi float64) BoundedPareto {
	if lo <= 0 || hi <= lo {
		panic("xrand: invalid Pareto bounds")
	}
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return BoundedPareto{la: la, ha: ha, hl: ha * la, e: -1 / alpha}
}

// Sample draws one value by inverting the CDF at a uniform u.
//
// The expression and its operation order are part of the golden-output
// contract: workloads truncate the sample to an integer stride, so an
// algebraically equal rewrite that moves the result by one ulp can move an
// address and change results_full.txt.
//
//obfus:hotpath
func (d *BoundedPareto) Sample(r *Rand) float64 {
	u := r.Float64()
	return math.Pow(-(u*d.ha-u*d.la-d.ha)/d.hl, d.e)
}

// Bytes fills p with random bytes.
func (r *Rand) Bytes(p []byte) {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8; j++ {
			p[i+j] = byte(v >> (8 * j))
		}
	}
	if i < len(p) {
		v := r.Uint64()
		for ; i < len(p); i++ {
			p[i] = byte(v)
			v >>= 8
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
