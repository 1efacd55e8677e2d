package aes

import "encoding/binary"

// Pad is a 16-byte one-time pad produced by encrypting an IV in counter
// mode. ObfusMem XORs pads with commands, addresses, and data (Fig 2/3 of
// the paper).
type Pad [BlockSize]byte

// IV builds a counter-mode initialization vector. The layout mirrors the
// paper's description of memory encryption IVs: a 64-bit identifier (page ID
// or channel/session ID), a 32-bit offset (page offset or direction tag),
// and a 32-bit counter slot; for bus encryption the 64-bit session counter
// spans the last two words.
type IV struct {
	ID      uint64
	Counter uint64
}

// Bytes serialises the IV into a single AES block.
func (iv IV) Bytes() [BlockSize]byte {
	var b [BlockSize]byte
	binary.BigEndian.PutUint64(b[0:8], iv.ID)
	binary.BigEndian.PutUint64(b[8:16], iv.Counter)
	return b
}

// CTR generates counter-mode pads from a cipher.
type CTR struct {
	c *Cipher
}

// NewCTR wraps a cipher for pad generation.
func NewCTR(c *Cipher) *CTR { return &CTR{c: c} }

// Pad returns the pad for a single IV. The IV's words go straight into the
// word-level cipher core, in the column order IV.Bytes lays them out.
//
//obfus:hotpath
func (ct *CTR) Pad(iv IV) Pad {
	t0, t1, t2, t3 := ct.c.encryptWords(
		uint32(iv.ID>>32), uint32(iv.ID), uint32(iv.Counter>>32), uint32(iv.Counter))
	var p Pad
	binary.BigEndian.PutUint32(p[0:4], t0)
	binary.BigEndian.PutUint32(p[4:8], t1)
	binary.BigEndian.PutUint32(p[8:12], t2)
	binary.BigEndian.PutUint32(p[12:16], t3)
	return p
}

// EncryptBlock64 XORs a 64-byte payload in place with the four consecutive
// pads at iv.Counter .. iv.Counter+3, each keystream word applied straight
// to the data (the four data pads of Figure 3's six-pad schedule).
//
//obfus:hotpath
func (ct *CTR) EncryptBlock64(data []byte, iv IV) {
	if len(data) != 64 {
		panic("aes: EncryptBlock64 needs a 64-byte block")
	}
	id0, id1 := uint32(iv.ID>>32), uint32(iv.ID)
	for i := 0; i < 4; i++ {
		ctr := iv.Counter + uint64(i)
		t0, t1, t2, t3 := ct.c.encryptWords(id0, id1, uint32(ctr>>32), uint32(ctr))
		b := data[16*i : 16*i+16]
		binary.BigEndian.PutUint32(b[0:4], binary.BigEndian.Uint32(b[0:4])^t0)
		binary.BigEndian.PutUint32(b[4:8], binary.BigEndian.Uint32(b[4:8])^t1)
		binary.BigEndian.PutUint32(b[8:12], binary.BigEndian.Uint32(b[8:12])^t2)
		binary.BigEndian.PutUint32(b[12:16], binary.BigEndian.Uint32(b[12:16])^t3)
	}
}

// ECB encrypts a single block directly (Electronic Code Book). It exists to
// model the paper's strawman address-encryption mode, whose temporal-pattern
// and footprint leakage the attack package demonstrates.
func (ct *CTR) ECB(block [BlockSize]byte) [BlockSize]byte {
	var out [BlockSize]byte
	ct.c.Encrypt(out[:], block[:])
	return out
}
