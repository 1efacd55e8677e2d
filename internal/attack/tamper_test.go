package attack

import (
	"testing"

	"obfusmem/internal/bus"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/system"
	"obfusmem/internal/xrand"
)

func eligiblePacket() *bus.Packet {
	p := &bus.Packet{Channel: 0, Dir: bus.ProcToMem, HasCmd: true, HasMAC: true,
		MAC: 0x1234, Data: make([]byte, bus.DataBytes)}
	for i := range p.CmdCipher {
		p.CmdCipher[i] = byte(i)
	}
	return p
}

// TestTampererPassThroughNoAllocs is the benchmark guard for the lazy
// replay-history rework: a Tamperer sitting on the wire must not allocate
// for packets it passes through untouched, for any attack kind. Before the
// rework every eligible packet was deep-copied into the replay history,
// which dominated allocation in long attack sweeps.
func TestTampererPassThroughNoAllocs(t *testing.T) {
	kinds := []TamperKind{TamperModify, TamperDrop, TamperReplay, TamperMAC, TamperData}
	for _, kind := range kinds {
		tmp := NewTamperer(kind, 1<<30, xrand.New(1))
		p := eligiblePacket()
		allocs := testing.AllocsPerRun(500, func() {
			if out := tmp.Tamper(0, p); out != p {
				t.Fatalf("%v: pass-through packet was substituted", kind)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per pass-through packet, want 0", kind, allocs)
		}
	}
}

// TestTampererReplayLazyHistory pins the replay semantics across the lazy
// rework: the replayed packet is still the immediately preceding eligible
// packet, an attack with an empty history is not counted, and the history
// snapshot is a deep copy (later sender-side mutation must not leak in).
func TestTampererReplayLazyHistory(t *testing.T) {
	tmp := NewTamperer(TamperReplay, 3, xrand.New(2))
	var sent []*bus.Packet
	var replayed *bus.Packet
	for i := 0; i < 6; i++ {
		p := eligiblePacket()
		p.CmdCipher[0] = byte(0xA0 + i)
		sent = append(sent, p)
		out := tmp.Tamper(0, p)
		if i == 2 || i == 5 { // every 3rd eligible packet is attacked
			replayed = out
		} else if out != p {
			t.Fatalf("packet %d substituted outside the attack schedule", i)
		}
	}
	if tmp.Attacked != 2 {
		t.Fatalf("Attacked = %d, want 2", tmp.Attacked)
	}
	// The 6th packet's replacement replays the 5th.
	if replayed == nil || replayed.CmdCipher[0] != 0xA4 {
		t.Fatalf("replayed wrong packet: %+v", replayed)
	}
	if replayed == sent[4] {
		t.Fatal("replay returned the live packet, not a snapshot")
	}
	sent[4].Data[0] = 0xFF
	if replayed.Data[0] == 0xFF {
		t.Fatal("history snapshot aliases the sender's data buffer")
	}

	// First-ever attack with nothing recorded: pass through, uncounted.
	fresh := NewTamperer(TamperReplay, 1, xrand.New(3))
	p := eligiblePacket()
	if out := fresh.Tamper(0, p); out != p {
		t.Fatal("replay with empty history must pass the packet through")
	}
	if fresh.Attacked != 0 {
		t.Fatalf("empty-history replay counted as attack: %d", fresh.Attacked)
	}
	if out := fresh.Tamper(0, eligiblePacket()); out != p && out.CmdCipher != p.CmdCipher {
		t.Fatal("second packet should replay the first")
	}
}

// detector identifies which layer catches (or misses) an in-flight attack.
type detector int

const (
	byBusMAC      detector = iota // memory/processor MAC check: TamperDetected
	byGroundTruth                 // no MAC: silent corruption, counted as DecodeMismatches
	undetected                    // nothing notices; requests succeed
)

func (d detector) String() string {
	return [...]string{"bus-MAC", "ground-truth", "undetected"}[d]
}

// TestTamperDetectionMatrix walks every command-level TamperKind against
// every MACMode and asserts which layer catches the attack. This pins the
// paper's Section 3.5 claims as a table: with communication authentication
// every command-level attack (modify, drop/desync, replay, MAC corruption)
// trips the bus MAC; without it, corruption is silent (we count it from
// ground truth as DecodeMismatches) except MAC-field flips, which are inert
// when no tag is on the wire. TamperData is covered separately by
// TestTamperDataCaughtByMerkleOnNextRead — by design no MAC mode catches
// payload corruption at the bus.
func TestTamperDetectionMatrix(t *testing.T) {
	want := map[TamperKind]map[obfus.MACMode]detector{
		TamperModify: {
			obfus.MACNone:        byGroundTruth,
			obfus.EncryptAndMAC:  byBusMAC,
			obfus.EncryptThenMAC: byBusMAC,
		},
		TamperDrop: { // deletion desynchronises the counters; every later decode is off
			obfus.MACNone:        byGroundTruth,
			obfus.EncryptAndMAC:  byBusMAC,
			obfus.EncryptThenMAC: byBusMAC,
		},
		TamperReplay: { // stale ciphertext under a fresh counter decodes to garbage
			obfus.MACNone:        byGroundTruth,
			obfus.EncryptAndMAC:  byBusMAC,
			obfus.EncryptThenMAC: byBusMAC,
		},
		TamperMAC: { // with no tag on the wire there is nothing to corrupt
			obfus.MACNone:        undetected,
			obfus.EncryptAndMAC:  byBusMAC,
			obfus.EncryptThenMAC: byBusMAC,
		},
	}
	seed := uint64(40)
	for kind, byMode := range want {
		for _, mode := range []obfus.MACMode{obfus.MACNone, obfus.EncryptAndMAC, obfus.EncryptThenMAC} {
			seed++
			cfg := obfus.Default()
			cfg.MAC = mode
			b, _, ctrl := newObfusRig(t, cfg, 1)
			tmp := NewTamperer(kind, 4, xrand.New(seed))
			b.SetTamperer(tmp)

			at := sim.Time(0)
			reads, readOKs := 0, 0
			for i := 0; i < 48; i++ {
				done, ok := ctrl.Read(at, uint64(i)*4096)
				reads++
				if ok {
					readOKs++
				}
				at = done + sim.Microsecond
			}
			name := kind.String() + "/" + mode.String()
			if tmp.Attacked == 0 {
				t.Fatalf("%s: tamperer never attacked; matrix cell is vacuous", name)
			}
			st := ctrl.Stats()
			switch byMode[mode] {
			case byBusMAC:
				if st.TamperDetected == 0 {
					t.Errorf("%s: bus MAC caught nothing (%+v)", name, st)
				}
				if st.DecodeMismatches != 0 {
					t.Errorf("%s: %d silent mismatches; the MAC should catch these first",
						name, st.DecodeMismatches)
				}
			case byGroundTruth:
				if st.TamperDetected != 0 {
					t.Errorf("%s: TamperDetected = %d with no MAC on the wire", name, st.TamperDetected)
				}
				if st.DecodeMismatches == 0 {
					t.Errorf("%s: corruption invisible even to ground truth (%+v)", name, st)
				}
			case undetected:
				if st.TamperDetected != 0 || st.DecodeMismatches != 0 {
					t.Errorf("%s: expected inert attack, got %+v", name, st)
				}
				if readOKs != reads {
					t.Errorf("%s: %d/%d reads failed; inert attack must not fail requests",
						name, reads-readOKs, reads)
				}
			}
		}
	}
}

// TestTamperDataCaughtByMerkleOnNextRead closes the matrix's data column at
// the system level (Observation 4): payload corruption sails past the bus
// MAC in every mode — the tag covers (type|address|counter), and this
// simulator's encrypt-then-MAC variant models only the timing of a
// data-covering tag, not its function — and is caught by the Merkle tree
// when the block is next read.
func TestTamperDataCaughtByMerkleOnNextRead(t *testing.T) {
	for _, mode := range []obfus.MACMode{obfus.MACNone, obfus.EncryptAndMAC, obfus.EncryptThenMAC} {
		cfg := system.DefaultConfig(system.ObfusMemAuth)
		cfg.Obfus.MAC = mode
		sys := system.New(cfg)
		tmp := NewTamperer(TamperData, 2, xrand.New(21))
		sys.Bus().SetTamperer(tmp)

		rng := xrand.New(22)
		var at sim.Time
		blocks := make(map[uint64]system.Block)
		for i := 0; i < 32; i++ {
			addr := uint64(i) * 64
			var blk system.Block
			rng.Bytes(blk[:])
			blocks[addr] = blk
			at = sys.WriteData(at, addr, blk) + sim.Nanosecond
		}
		caught, silentCorruption := 0, 0
		for addr, want := range blocks {
			got, done, verified := sys.ReadData(at, addr)
			if !verified {
				caught++
			} else if got != want {
				silentCorruption++
			}
			at = done + sim.Nanosecond
		}
		name := "corrupt-data/" + mode.String()
		if tmp.Attacked == 0 {
			t.Fatalf("%s: no data corruptions mounted", name)
		}
		if got := sys.Obfus().Stats().TamperDetected; got != 0 {
			t.Errorf("%s: bus MAC flagged %d payload corruptions; no mode covers data", name, got)
		}
		if caught == 0 {
			t.Errorf("%s: Merkle tree caught no corrupted blocks", name)
		}
		if silentCorruption != 0 {
			t.Errorf("%s: %d corrupted blocks passed verification", name, silentCorruption)
		}
	}
}
