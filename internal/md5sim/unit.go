package md5sim

import (
	"encoding/binary"
	"math/bits"

	"obfusmem/internal/sim"
)

// Hardware model parameters from the paper's synthesis of the OpenCores
// 64-stage pipelined MD5 (Section 4: 12.5 mW, 0.214 mm²). With one MD5
// round per pipeline stage the per-stage critical path is a handful of
// adders and a rotate, so the unit clocks well above the AES datapath; we
// model a 1 ns stage, giving a 64 ns digest latency — short enough that,
// as Observation 4 requires, MAC generation overlaps request encryption
// and the PCM array access.
const (
	UnitCycle   = 1 * sim.Nanosecond
	UnitStages  = 64
	UnitLatency = UnitStages * UnitCycle
	UnitPowerMW = 12.5
	UnitAreaMM2 = 0.214
	// MACEnergyPJ is the energy of one digest: power × pipeline occupancy
	// of one cycle (12.5 mW × 1 ns = 12.5 pJ per issued message).
	MACEnergyPJ = UnitPowerMW * 1.0
)

// MAC is a truncated digest carried on the bus next to an encrypted request.
// 64 bits is ample for an attacker who cannot see the MAC input (the
// plaintext components are secret), per Section 3.5's "lightweight MAC"
// argument.
type MAC uint64

// Compute builds the encrypt-and-MAC tag β = H(type | address | counter)
// over the *plaintext* components of a request (Section 3.5). The 17-byte
// message always fits one block, so the padded block (0x80 terminator,
// 136-bit little-endian length) is assembled in place and folded once; the
// tag is the digest's first 8 bytes read big-endian, which are the
// byte-reversed a and b chaining words.
//
//obfus:hotpath
func Compute(reqType byte, addr uint64, counter uint64) MAC {
	const msgLen = 17
	var blk [BlockSize]byte
	blk[0] = reqType
	binary.BigEndian.PutUint64(blk[1:9], addr)
	binary.BigEndian.PutUint64(blk[9:17], counter)
	blk[msgLen] = 0x80
	binary.LittleEndian.PutUint64(blk[BlockSize-8:], msgLen*8)
	st := initState
	st.block(blk[:])
	return MAC(uint64(bits.ReverseBytes32(st.a))<<32 | uint64(bits.ReverseBytes32(st.b)))
}

// ComputeOverMessage builds the encrypt-then-MAC tag α = H(M) over an
// already-encrypted message, the slower alternative the paper rejects.
func ComputeOverMessage(msg []byte) MAC {
	d := Digest(msg)
	return MAC(binary.BigEndian.Uint64(d[:8]))
}

// Unit is the timing model of one pipelined MD5 engine.
type Unit struct {
	pipe *sim.Pipeline
}

// NewUnit returns an idle MD5 unit.
func NewUnit(name string) *Unit {
	return &Unit{pipe: sim.NewPipeline(name, UnitLatency, UnitCycle)}
}

// Issue schedules one digest at or after `at` and returns its completion
// time. With encrypt-and-MAC the caller issues as soon as (type, address,
// counter) are known — potentially before the request reaches the bus — so
// MAC latency overlaps encryption; with encrypt-then-MAC the caller must
// pass at >= encryption completion.
func (u *Unit) Issue(at sim.Time) sim.Time { return u.pipe.Issue(at) }

// Digests returns the number of digests issued.
func (u *Unit) Digests() uint64 { return u.pipe.Ops() }

// EnergyPJ returns accumulated digest energy in picojoules.
func (u *Unit) EnergyPJ() float64 { return float64(u.pipe.Ops()) * MACEnergyPJ }

// Reset clears the pipeline.
func (u *Unit) Reset() { u.pipe.Reset() }
