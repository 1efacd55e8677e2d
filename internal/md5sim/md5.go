// Package md5sim implements the MD5 message digest (RFC 1321) from scratch
// together with a timing model of the 64-stage pipelined hardware unit the
// paper synthesises for bus-communication authentication (Section 4: 12.5 mW,
// 0.214 mm²).
//
// MD5 is used here exactly as in the paper: as a lightweight MAC over the
// plaintext components of a memory request (type | address | counter), where
// the attacker never sees the MAC input in the clear (encrypt-and-MAC,
// Section 3.5). It is not used for collision-resistant signing.
package md5sim

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Size is the digest length in bytes.
const Size = 16

// BlockSize is the MD5 block size in bytes.
const BlockSize = 64

// sines holds K[i] = floor(2^32 * |sin(i+1)|), computed at init time from
// the definition rather than pasted, as a self-check of the constant table.
var sines [64]uint32

func init() {
	for i := 0; i < 64; i++ {
		sines[i] = uint32(math.Floor(math.Abs(math.Sin(float64(i+1))) * (1 << 32)))
	}
}

// state is the running MD5 chaining value.
type state struct{ a, b, c, d uint32 }

// initState is the RFC 1321 §3.3 chaining-value initialiser.
var initState = state{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}

// block folds one 64-byte block into the chaining value (RFC 1321 §3.4).
// The 64 steps are written out: step i of round r computes
// a = b + (a + f_r(b,c,d) + X[g] + K[i]) <<< s with its own message-word
// index g and shift s, and the four registers trade roles from step to step
// instead of being shuffled. Each sum adds a + X[g] + K[i] first and the
// boolean function last, so only b, the register the previous step just
// produced, sits on the serial dependency chain; G is split into the
// disjoint (c AND NOT d) + (b AND d) for the same reason.
//
//obfus:hotpath
func (st *state) block(p []byte) {
	_ = p[BlockSize-1]
	x0 := binary.LittleEndian.Uint32(p[0:])
	x1 := binary.LittleEndian.Uint32(p[4:])
	x2 := binary.LittleEndian.Uint32(p[8:])
	x3 := binary.LittleEndian.Uint32(p[12:])
	x4 := binary.LittleEndian.Uint32(p[16:])
	x5 := binary.LittleEndian.Uint32(p[20:])
	x6 := binary.LittleEndian.Uint32(p[24:])
	x7 := binary.LittleEndian.Uint32(p[28:])
	x8 := binary.LittleEndian.Uint32(p[32:])
	x9 := binary.LittleEndian.Uint32(p[36:])
	x10 := binary.LittleEndian.Uint32(p[40:])
	x11 := binary.LittleEndian.Uint32(p[44:])
	x12 := binary.LittleEndian.Uint32(p[48:])
	x13 := binary.LittleEndian.Uint32(p[52:])
	x14 := binary.LittleEndian.Uint32(p[56:])
	x15 := binary.LittleEndian.Uint32(p[60:])
	a, b, c, d := st.a, st.b, st.c, st.d

	// Round 1: F(b,c,d) = (b AND c) OR (NOT b AND d).
	a = b + bits.RotateLeft32(a+x0+sines[0]+(((c^d)&b)^d), 7)
	d = a + bits.RotateLeft32(d+x1+sines[1]+(((b^c)&a)^c), 12)
	c = d + bits.RotateLeft32(c+x2+sines[2]+(((a^b)&d)^b), 17)
	b = c + bits.RotateLeft32(b+x3+sines[3]+(((d^a)&c)^a), 22)
	a = b + bits.RotateLeft32(a+x4+sines[4]+(((c^d)&b)^d), 7)
	d = a + bits.RotateLeft32(d+x5+sines[5]+(((b^c)&a)^c), 12)
	c = d + bits.RotateLeft32(c+x6+sines[6]+(((a^b)&d)^b), 17)
	b = c + bits.RotateLeft32(b+x7+sines[7]+(((d^a)&c)^a), 22)
	a = b + bits.RotateLeft32(a+x8+sines[8]+(((c^d)&b)^d), 7)
	d = a + bits.RotateLeft32(d+x9+sines[9]+(((b^c)&a)^c), 12)
	c = d + bits.RotateLeft32(c+x10+sines[10]+(((a^b)&d)^b), 17)
	b = c + bits.RotateLeft32(b+x11+sines[11]+(((d^a)&c)^a), 22)
	a = b + bits.RotateLeft32(a+x12+sines[12]+(((c^d)&b)^d), 7)
	d = a + bits.RotateLeft32(d+x13+sines[13]+(((b^c)&a)^c), 12)
	c = d + bits.RotateLeft32(c+x14+sines[14]+(((a^b)&d)^b), 17)
	b = c + bits.RotateLeft32(b+x15+sines[15]+(((d^a)&c)^a), 22)
	// Round 2: G(b,c,d) = (b AND d) OR (c AND NOT d).
	a = b + bits.RotateLeft32(a+x1+sines[16]+(c&^d)+(b&d), 5)
	d = a + bits.RotateLeft32(d+x6+sines[17]+(b&^c)+(a&c), 9)
	c = d + bits.RotateLeft32(c+x11+sines[18]+(a&^b)+(d&b), 14)
	b = c + bits.RotateLeft32(b+x0+sines[19]+(d&^a)+(c&a), 20)
	a = b + bits.RotateLeft32(a+x5+sines[20]+(c&^d)+(b&d), 5)
	d = a + bits.RotateLeft32(d+x10+sines[21]+(b&^c)+(a&c), 9)
	c = d + bits.RotateLeft32(c+x15+sines[22]+(a&^b)+(d&b), 14)
	b = c + bits.RotateLeft32(b+x4+sines[23]+(d&^a)+(c&a), 20)
	a = b + bits.RotateLeft32(a+x9+sines[24]+(c&^d)+(b&d), 5)
	d = a + bits.RotateLeft32(d+x14+sines[25]+(b&^c)+(a&c), 9)
	c = d + bits.RotateLeft32(c+x3+sines[26]+(a&^b)+(d&b), 14)
	b = c + bits.RotateLeft32(b+x8+sines[27]+(d&^a)+(c&a), 20)
	a = b + bits.RotateLeft32(a+x13+sines[28]+(c&^d)+(b&d), 5)
	d = a + bits.RotateLeft32(d+x2+sines[29]+(b&^c)+(a&c), 9)
	c = d + bits.RotateLeft32(c+x7+sines[30]+(a&^b)+(d&b), 14)
	b = c + bits.RotateLeft32(b+x12+sines[31]+(d&^a)+(c&a), 20)
	// Round 3: H(b,c,d) = b XOR c XOR d.
	a = b + bits.RotateLeft32(a+x5+sines[32]+(c^d^b), 4)
	d = a + bits.RotateLeft32(d+x8+sines[33]+(b^c^a), 11)
	c = d + bits.RotateLeft32(c+x11+sines[34]+(a^b^d), 16)
	b = c + bits.RotateLeft32(b+x14+sines[35]+(d^a^c), 23)
	a = b + bits.RotateLeft32(a+x1+sines[36]+(c^d^b), 4)
	d = a + bits.RotateLeft32(d+x4+sines[37]+(b^c^a), 11)
	c = d + bits.RotateLeft32(c+x7+sines[38]+(a^b^d), 16)
	b = c + bits.RotateLeft32(b+x10+sines[39]+(d^a^c), 23)
	a = b + bits.RotateLeft32(a+x13+sines[40]+(c^d^b), 4)
	d = a + bits.RotateLeft32(d+x0+sines[41]+(b^c^a), 11)
	c = d + bits.RotateLeft32(c+x3+sines[42]+(a^b^d), 16)
	b = c + bits.RotateLeft32(b+x6+sines[43]+(d^a^c), 23)
	a = b + bits.RotateLeft32(a+x9+sines[44]+(c^d^b), 4)
	d = a + bits.RotateLeft32(d+x12+sines[45]+(b^c^a), 11)
	c = d + bits.RotateLeft32(c+x15+sines[46]+(a^b^d), 16)
	b = c + bits.RotateLeft32(b+x2+sines[47]+(d^a^c), 23)
	// Round 4: I(b,c,d) = c XOR (b OR NOT d).
	a = b + bits.RotateLeft32(a+x0+sines[48]+(c^(b|^d)), 6)
	d = a + bits.RotateLeft32(d+x7+sines[49]+(b^(a|^c)), 10)
	c = d + bits.RotateLeft32(c+x14+sines[50]+(a^(d|^b)), 15)
	b = c + bits.RotateLeft32(b+x5+sines[51]+(d^(c|^a)), 21)
	a = b + bits.RotateLeft32(a+x12+sines[52]+(c^(b|^d)), 6)
	d = a + bits.RotateLeft32(d+x3+sines[53]+(b^(a|^c)), 10)
	c = d + bits.RotateLeft32(c+x10+sines[54]+(a^(d|^b)), 15)
	b = c + bits.RotateLeft32(b+x1+sines[55]+(d^(c|^a)), 21)
	a = b + bits.RotateLeft32(a+x8+sines[56]+(c^(b|^d)), 6)
	d = a + bits.RotateLeft32(d+x15+sines[57]+(b^(a|^c)), 10)
	c = d + bits.RotateLeft32(c+x6+sines[58]+(a^(d|^b)), 15)
	b = c + bits.RotateLeft32(b+x13+sines[59]+(d^(c|^a)), 21)
	a = b + bits.RotateLeft32(a+x4+sines[60]+(c^(b|^d)), 6)
	d = a + bits.RotateLeft32(d+x11+sines[61]+(b^(a|^c)), 10)
	c = d + bits.RotateLeft32(c+x2+sines[62]+(a^(d|^b)), 15)
	b = c + bits.RotateLeft32(b+x9+sines[63]+(d^(c|^a)), 21)

	st.a += a
	st.b += b
	st.c += c
	st.d += d
}

// Digest computes the MD5 hash of msg. Full blocks are folded straight from
// msg and the Merkle-Damgård padding (0x80, zeros, 64-bit little-endian bit
// length) is assembled in a fixed stack buffer, so Digest performs no heap
// allocation — it sits on the per-packet MAC hot path of the simulator.
func Digest(msg []byte) [Size]byte {
	st := initState
	bitLen := uint64(len(msg)) * 8
	for len(msg) >= BlockSize {
		st.block(msg[:BlockSize])
		msg = msg[BlockSize:]
	}
	// The tail plus padding spans one block, or two when the remaining
	// bytes leave fewer than 8 bytes for the length field.
	var tail [2 * BlockSize]byte
	n := copy(tail[:], msg)
	tail[n] = 0x80
	end := BlockSize
	if n+1 > BlockSize-8 {
		end = 2 * BlockSize
	}
	binary.LittleEndian.PutUint64(tail[end-8:], bitLen)
	st.block(tail[:BlockSize])
	if end == 2*BlockSize {
		st.block(tail[BlockSize:])
	}

	var out [Size]byte
	binary.LittleEndian.PutUint32(out[0:], st.a)
	binary.LittleEndian.PutUint32(out[4:], st.b)
	binary.LittleEndian.PutUint32(out[8:], st.c)
	binary.LittleEndian.PutUint32(out[12:], st.d)
	return out
}
