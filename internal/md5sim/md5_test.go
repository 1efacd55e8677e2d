package md5sim

import (
	"bytes"
	stdmd5 "crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"

	"obfusmem/internal/xrand"
)

// RFC 1321 Appendix A.5 test suite.
func TestRFC1321Vectors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "d41d8cd98f00b204e9800998ecf8427e"},
		{"a", "0cc175b9c0f1b6a831c399e269772661"},
		{"abc", "900150983cd24fb0d6963f7d28e17f72"},
		{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
		{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
		{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
			"d174ab98d277d9f5a5611c2c9f419d9f"},
		{"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
			"57edf4a22be3c955ac49da2e2107b67a"},
	}
	for _, c := range cases {
		got := Digest([]byte(c.in))
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("Digest(%q) = %x, want %s", c.in, got, c.want)
		}
	}
}

func TestAgainstStdlib(t *testing.T) {
	r := xrand.New(2)
	for i := 0; i < 100; i++ {
		n := r.Intn(300)
		msg := make([]byte, n)
		r.Bytes(msg)
		got := Digest(msg)
		want := stdmd5.Sum(msg)
		if !bytes.Equal(got[:], want[:]) {
			t.Fatalf("len %d: got %x want %x", n, got, want)
		}
	}
}

// Messages near block boundaries exercise the padding logic.
func TestPaddingBoundaries(t *testing.T) {
	for _, n := range []int{54, 55, 56, 57, 63, 64, 65, 119, 120, 128} {
		msg := bytes.Repeat([]byte{0x42}, n)
		got := Digest(msg)
		want := stdmd5.Sum(msg)
		if !bytes.Equal(got[:], want[:]) {
			t.Errorf("len %d digest mismatch", n)
		}
	}
}

func TestDigestPropertyMatchesStdlib(t *testing.T) {
	f := func(msg []byte) bool {
		got := Digest(msg)
		want := stdmd5.Sum(msg)
		return bytes.Equal(got[:], want[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComputeMAC(t *testing.T) {
	m1 := Compute(1, 0x1000, 42)
	m2 := Compute(1, 0x1000, 42)
	if m1 != m2 {
		t.Fatal("MAC not deterministic")
	}
	// Each component change flips the MAC (the tampering scenarios of §3.5).
	if Compute(2, 0x1000, 42) == m1 {
		t.Error("type change did not change MAC")
	}
	if Compute(1, 0x1040, 42) == m1 {
		t.Error("address change did not change MAC")
	}
	if Compute(1, 0x1000, 43) == m1 {
		t.Error("counter change did not change MAC (replay would succeed)")
	}
}

// FuzzComputeMatchesStdlib differentially checks the one-block MAC path
// and the general multi-block Digest against crypto/md5: Compute must be
// the first 8 bytes, big-endian, of the stdlib digest of the 17-byte
// (type | address | counter) message, and Digest must equal md5.Sum for
// any message.
func FuzzComputeMatchesStdlib(f *testing.F) {
	f.Add(byte(0), uint64(0), uint64(0), []byte(nil))
	f.Add(byte(1), uint64(0x1000), uint64(42), []byte("abc"))
	f.Add(byte(0xff), ^uint64(0), ^uint64(0), bytes.Repeat([]byte{0x42}, 55))
	f.Add(byte(2), uint64(0xdeadbeefcafef00d), uint64(0xffffffff), bytes.Repeat([]byte{7}, 200))
	f.Fuzz(func(t *testing.T, reqType byte, addr, counter uint64, msg []byte) {
		var buf [17]byte
		buf[0] = reqType
		binary.BigEndian.PutUint64(buf[1:9], addr)
		binary.BigEndian.PutUint64(buf[9:17], counter)
		want := stdmd5.Sum(buf[:])
		if got := Compute(reqType, addr, counter); uint64(got) != binary.BigEndian.Uint64(want[:8]) {
			t.Fatalf("Compute(%d, %#x, %#x) = %#x, want %x", reqType, addr, counter, uint64(got), want[:8])
		}
		if got, want := Digest(msg), stdmd5.Sum(msg); got != want {
			t.Fatalf("Digest(len %d) = %x, want %x", len(msg), got, want)
		}
	})
}

// TestComputeZeroAllocs pins the per-packet MAC kernel at 0 allocs/op.
func TestComputeZeroAllocs(t *testing.T) {
	ctr := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		ctr++
		macSink = Compute(1, 0x1000+ctr*64, ctr)
	}); n != 0 {
		t.Fatalf("Compute allocates %v times per call, want 0", n)
	}
}

func TestComputeOverMessage(t *testing.T) {
	a := ComputeOverMessage([]byte("hello"))
	b := ComputeOverMessage([]byte("hellp"))
	if a == b {
		t.Error("distinct messages produced identical MACs")
	}
	if a != ComputeOverMessage([]byte("hello")) {
		t.Error("MAC not deterministic")
	}
}

func TestUnitTimingOverlap(t *testing.T) {
	u := NewUnit("mac")
	// encrypt-and-MAC: issue at t=0, overlapping an encryption that also
	// starts at 0; both done by max of the two latencies.
	done := u.Issue(0)
	if done != UnitLatency {
		t.Fatalf("done = %v, want %v", done, UnitLatency)
	}
	// Pipelined: second digest one cycle later.
	done2 := u.Issue(0)
	if done2 != UnitLatency+UnitCycle {
		t.Fatalf("done2 = %v, want %v", done2, UnitLatency+UnitCycle)
	}
	if u.Digests() != 2 {
		t.Fatalf("Digests = %d", u.Digests())
	}
	if e := u.EnergyPJ(); e != 2*MACEnergyPJ {
		t.Fatalf("EnergyPJ = %v", e)
	}
	u.Reset()
	if u.Digests() != 0 {
		t.Error("Reset failed")
	}
}

func BenchmarkDigest17(b *testing.B) {
	msg := make([]byte, 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Digest(msg)
	}
}

// macSink keeps the benchmarked tags live.
var macSink MAC

func BenchmarkCompute(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		macSink = Compute(1, uint64(i)*64, uint64(i))
	}
}
