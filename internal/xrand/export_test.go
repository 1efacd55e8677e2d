package xrand

// RandWithNext returns a generator whose next Uint64 is exactly x, so
// tests can pin the uniform variate behind a draw (x = 0 gives
// Float64() == 0; x = ^0 gives the largest Float64 below 1).
func RandWithNext(x uint64) *Rand {
	// Uint64 returns rotl(s[1]*5, 7) * 9; 5 and 9 are odd, hence
	// invertible modulo 2^64.
	return &Rand{s: [4]uint64{1, rotl(x*inverse(9), 64-7) * inverse(5), 0, 0}}
}

// inverse returns the multiplicative inverse of odd a modulo 2^64 by
// Newton's iteration (each step doubles the number of correct low bits,
// starting from 3).
func inverse(a uint64) uint64 {
	inv := a
	for i := 0; i < 5; i++ {
		inv *= 2 - a*inv
	}
	return inv
}
