package aes

import "encoding/binary"

// T-table encryption (the classic Rijndael reference optimisation): each
// table entry folds SubBytes and the MixColumns coefficients for one state
// row into a single 32-bit word, so a full round is 16 table lookups and a
// handful of XORs instead of per-byte GF(2^8) multiply loops. Profiling the
// suite showed mul+mixColumns at ~94% of total CPU before this rewrite.
//
// The tables are generated in init from the same computed sbox as the
// spec-path round functions, and the output is bit-identical to
// encryptSpec (differentially tested, plus the stdlib cross-check).
//
// With the state held column-major (FIPS-197 §3.4) as four big-endian
// words, row r of a word sits at shift 24-8r, and ShiftRows makes column c
// draw row r from column c+r. Per row the MixColumns coefficient pattern
// is [02 01 01 03] rotated right r bytes:
var te0, te1, te2, te3 [256]uint32

func initEncTables() {
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := mul(s, 2)
		s3 := s2 ^ s
		te0[i] = uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		te1[i] = uint32(s3)<<24 | uint32(s2)<<16 | uint32(s)<<8 | uint32(s)
		te2[i] = uint32(s)<<24 | uint32(s3)<<16 | uint32(s2)<<8 | uint32(s)
		te3[i] = uint32(s)<<24 | uint32(s)<<16 | uint32(s3)<<8 | uint32(s2)
	}
}

// Encrypt encrypts one 16-byte block. dst and src may overlap.
//
//obfus:hotpath
func (c *Cipher) Encrypt(dst, src []byte) {
	if len(src) < BlockSize || len(dst) < BlockSize {
		panic("aes: short block")
	}
	t0, t1, t2, t3 := c.encryptWords(
		binary.BigEndian.Uint32(src[0:4]), binary.BigEndian.Uint32(src[4:8]),
		binary.BigEndian.Uint32(src[8:12]), binary.BigEndian.Uint32(src[12:16]))
	binary.BigEndian.PutUint32(dst[0:4], t0)
	binary.BigEndian.PutUint32(dst[4:8], t1)
	binary.BigEndian.PutUint32(dst[8:12], t2)
	binary.BigEndian.PutUint32(dst[12:16], t3)
}

// encryptWords is the word-level T-table core: it encrypts the block whose
// big-endian column words are s0..s3 and returns the ciphertext words. The
// ten rounds are written out, so every round-key index is a constant and
// the uint8 table indexes need no bounds checks.
//
//obfus:hotpath
func (c *Cipher) encryptWords(s0, s1, s2, s3 uint32) (uint32, uint32, uint32, uint32) {
	rk := &c.enc
	var t0, t1, t2, t3 uint32
	// Initial AddRoundKey, then rounds 1-9 alternating s -> t -> s.
	s0 ^= rk[0]
	s1 ^= rk[1]
	s2 ^= rk[2]
	s3 ^= rk[3]
	t0 = te0[uint8(s0>>24)] ^ te1[uint8(s1>>16)] ^ te2[uint8(s2>>8)] ^ te3[uint8(s3)] ^ rk[4]
	t1 = te0[uint8(s1>>24)] ^ te1[uint8(s2>>16)] ^ te2[uint8(s3>>8)] ^ te3[uint8(s0)] ^ rk[5]
	t2 = te0[uint8(s2>>24)] ^ te1[uint8(s3>>16)] ^ te2[uint8(s0>>8)] ^ te3[uint8(s1)] ^ rk[6]
	t3 = te0[uint8(s3>>24)] ^ te1[uint8(s0>>16)] ^ te2[uint8(s1>>8)] ^ te3[uint8(s2)] ^ rk[7]
	s0 = te0[uint8(t0>>24)] ^ te1[uint8(t1>>16)] ^ te2[uint8(t2>>8)] ^ te3[uint8(t3)] ^ rk[8]
	s1 = te0[uint8(t1>>24)] ^ te1[uint8(t2>>16)] ^ te2[uint8(t3>>8)] ^ te3[uint8(t0)] ^ rk[9]
	s2 = te0[uint8(t2>>24)] ^ te1[uint8(t3>>16)] ^ te2[uint8(t0>>8)] ^ te3[uint8(t1)] ^ rk[10]
	s3 = te0[uint8(t3>>24)] ^ te1[uint8(t0>>16)] ^ te2[uint8(t1>>8)] ^ te3[uint8(t2)] ^ rk[11]
	t0 = te0[uint8(s0>>24)] ^ te1[uint8(s1>>16)] ^ te2[uint8(s2>>8)] ^ te3[uint8(s3)] ^ rk[12]
	t1 = te0[uint8(s1>>24)] ^ te1[uint8(s2>>16)] ^ te2[uint8(s3>>8)] ^ te3[uint8(s0)] ^ rk[13]
	t2 = te0[uint8(s2>>24)] ^ te1[uint8(s3>>16)] ^ te2[uint8(s0>>8)] ^ te3[uint8(s1)] ^ rk[14]
	t3 = te0[uint8(s3>>24)] ^ te1[uint8(s0>>16)] ^ te2[uint8(s1>>8)] ^ te3[uint8(s2)] ^ rk[15]
	s0 = te0[uint8(t0>>24)] ^ te1[uint8(t1>>16)] ^ te2[uint8(t2>>8)] ^ te3[uint8(t3)] ^ rk[16]
	s1 = te0[uint8(t1>>24)] ^ te1[uint8(t2>>16)] ^ te2[uint8(t3>>8)] ^ te3[uint8(t0)] ^ rk[17]
	s2 = te0[uint8(t2>>24)] ^ te1[uint8(t3>>16)] ^ te2[uint8(t0>>8)] ^ te3[uint8(t1)] ^ rk[18]
	s3 = te0[uint8(t3>>24)] ^ te1[uint8(t0>>16)] ^ te2[uint8(t1>>8)] ^ te3[uint8(t2)] ^ rk[19]
	t0 = te0[uint8(s0>>24)] ^ te1[uint8(s1>>16)] ^ te2[uint8(s2>>8)] ^ te3[uint8(s3)] ^ rk[20]
	t1 = te0[uint8(s1>>24)] ^ te1[uint8(s2>>16)] ^ te2[uint8(s3>>8)] ^ te3[uint8(s0)] ^ rk[21]
	t2 = te0[uint8(s2>>24)] ^ te1[uint8(s3>>16)] ^ te2[uint8(s0>>8)] ^ te3[uint8(s1)] ^ rk[22]
	t3 = te0[uint8(s3>>24)] ^ te1[uint8(s0>>16)] ^ te2[uint8(s1>>8)] ^ te3[uint8(s2)] ^ rk[23]
	s0 = te0[uint8(t0>>24)] ^ te1[uint8(t1>>16)] ^ te2[uint8(t2>>8)] ^ te3[uint8(t3)] ^ rk[24]
	s1 = te0[uint8(t1>>24)] ^ te1[uint8(t2>>16)] ^ te2[uint8(t3>>8)] ^ te3[uint8(t0)] ^ rk[25]
	s2 = te0[uint8(t2>>24)] ^ te1[uint8(t3>>16)] ^ te2[uint8(t0>>8)] ^ te3[uint8(t1)] ^ rk[26]
	s3 = te0[uint8(t3>>24)] ^ te1[uint8(t0>>16)] ^ te2[uint8(t1>>8)] ^ te3[uint8(t2)] ^ rk[27]
	t0 = te0[uint8(s0>>24)] ^ te1[uint8(s1>>16)] ^ te2[uint8(s2>>8)] ^ te3[uint8(s3)] ^ rk[28]
	t1 = te0[uint8(s1>>24)] ^ te1[uint8(s2>>16)] ^ te2[uint8(s3>>8)] ^ te3[uint8(s0)] ^ rk[29]
	t2 = te0[uint8(s2>>24)] ^ te1[uint8(s3>>16)] ^ te2[uint8(s0>>8)] ^ te3[uint8(s1)] ^ rk[30]
	t3 = te0[uint8(s3>>24)] ^ te1[uint8(s0>>16)] ^ te2[uint8(s1>>8)] ^ te3[uint8(s2)] ^ rk[31]
	s0 = te0[uint8(t0>>24)] ^ te1[uint8(t1>>16)] ^ te2[uint8(t2>>8)] ^ te3[uint8(t3)] ^ rk[32]
	s1 = te0[uint8(t1>>24)] ^ te1[uint8(t2>>16)] ^ te2[uint8(t3>>8)] ^ te3[uint8(t0)] ^ rk[33]
	s2 = te0[uint8(t2>>24)] ^ te1[uint8(t3>>16)] ^ te2[uint8(t0>>8)] ^ te3[uint8(t1)] ^ rk[34]
	s3 = te0[uint8(t3>>24)] ^ te1[uint8(t0>>16)] ^ te2[uint8(t1>>8)] ^ te3[uint8(t2)] ^ rk[35]
	t0 = te0[uint8(s0>>24)] ^ te1[uint8(s1>>16)] ^ te2[uint8(s2>>8)] ^ te3[uint8(s3)] ^ rk[36]
	t1 = te0[uint8(s1>>24)] ^ te1[uint8(s2>>16)] ^ te2[uint8(s3>>8)] ^ te3[uint8(s0)] ^ rk[37]
	t2 = te0[uint8(s2>>24)] ^ te1[uint8(s3>>16)] ^ te2[uint8(s0>>8)] ^ te3[uint8(s1)] ^ rk[38]
	t3 = te0[uint8(s3>>24)] ^ te1[uint8(s0>>16)] ^ te2[uint8(s1>>8)] ^ te3[uint8(s2)] ^ rk[39]

	// Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
	return (uint32(sbox[uint8(t0>>24)])<<24 | uint32(sbox[uint8(t1>>16)])<<16 |
			uint32(sbox[uint8(t2>>8)])<<8 | uint32(sbox[uint8(t3)])) ^ rk[40],
		(uint32(sbox[uint8(t1>>24)])<<24 | uint32(sbox[uint8(t2>>16)])<<16 |
			uint32(sbox[uint8(t3>>8)])<<8 | uint32(sbox[uint8(t0)])) ^ rk[41],
		(uint32(sbox[uint8(t2>>24)])<<24 | uint32(sbox[uint8(t3>>16)])<<16 |
			uint32(sbox[uint8(t0>>8)])<<8 | uint32(sbox[uint8(t1)])) ^ rk[42],
		(uint32(sbox[uint8(t3>>24)])<<24 | uint32(sbox[uint8(t0>>16)])<<16 |
			uint32(sbox[uint8(t1>>8)])<<8 | uint32(sbox[uint8(t2)])) ^ rk[43]
}
