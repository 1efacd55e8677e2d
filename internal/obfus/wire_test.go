package obfus

import (
	"testing"

	"obfusmem/internal/aes"
	"obfusmem/internal/bus"
	"obfusmem/internal/xrand"
)

// TestSealCmdMatchesByteXOR checks the word-level seal against a byte-wise
// XOR of the command field with the pad, and that openCmd inverts it.
func TestSealCmdMatchesByteXOR(t *testing.T) {
	r := xrand.New(31)
	for i := 0; i < 1000; i++ {
		typ, addr := bus.ReqType(r.Intn(2)), r.Uint64()
		var pad aes.Pad
		r.Bytes(pad[:])
		plain := encodeCmd(typ, addr)
		var want [bus.CmdBytes]byte
		for j := range plain {
			want[j] = plain[j] ^ pad[j]
		}
		got := sealCmd(plain, pad)
		if got != want {
			t.Fatalf("sealCmd = %x, want %x", got, want)
		}
		if gt, ga := openCmd(got, pad); gt != typ || ga != addr {
			t.Fatalf("openCmd = (%v, %#x), want (%v, %#x)", gt, ga, typ, addr)
		}
	}
}
