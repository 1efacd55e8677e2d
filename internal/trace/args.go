package trace

import (
	"fmt"

	"obfusmem/internal/sim"
)

// Key names a span argument. The key set is closed and declared here, like
// the span names in internal/names, so an argument carries a one-byte key
// instead of a string.
type Key uint8

// Span argument keys.
const (
	KeyAddr Key = iota
	KeyAttempt
	KeyAttempts
	KeyBank
	KeyBlocks
	KeyBytes
	KeyCtr
	KeyDummy
	KeyKey
	KeyPads
	KeyRank
	KeyRow
	KeyScheme
	KeySeq
	KeySlackNS
	KeySrcRow
	KeyType
	KeyWorkload
	KeyWrite
	KeyWriteAddr
	// Request-envelope breakdown parts.
	KeyQueueNS
	KeyBusNS
	KeyCryptoNS
	KeyPCMNS
	KeyOtherNS
	numKeys
)

var keyNames = [numKeys]string{
	KeyAddr:      "addr",
	KeyAttempt:   "attempt",
	KeyAttempts:  "attempts",
	KeyBank:      "bank",
	KeyBlocks:    "blocks",
	KeyBytes:     "bytes",
	KeyCtr:       "ctr",
	KeyDummy:     "dummy",
	KeyKey:       "key",
	KeyPads:      "pads",
	KeyRank:      "rank",
	KeyRow:       "row",
	KeyScheme:    "scheme",
	KeySeq:       "seq",
	KeySlackNS:   "slack_ns",
	KeySrcRow:    "src_row",
	KeyType:      "type",
	KeyWorkload:  "workload",
	KeyWrite:     "write",
	KeyWriteAddr: "write_addr",
	KeyQueueNS:   "queue_ns",
	KeyBusNS:     "bus_ns",
	KeyCryptoNS:  "crypto_ns",
	KeyPCMNS:     "pcm_ns",
	KeyOtherNS:   "other_ns",
}

func (k Key) String() string { return keyNames[k] }

// argKind says how an argument's 64 bits decode on export.
type argKind uint8

const (
	kindInt   argKind = iota // int64
	kindUint                 // uint64
	kindBool                 // 0 or 1
	kindLabel                // LabelID in the recorder's string table
	kindHex                  // uint64, exported as a "%#x" string
	kindNS                   // picoseconds, exported as float64 nanoseconds
)

// Attr is one typed span argument: a key, a kind, and 64 raw bits. Build it
// with Int, Uint, Bool, Hex, NS, or Label; none of them allocates.
type Attr struct {
	bits uint64
	key  Key
	kind argKind
}

// Int is a signed integer argument.
//
//obfus:hotpath
func Int(k Key, v int64) Attr { return Attr{uint64(v), k, kindInt} }

// Uint is an unsigned integer argument.
//
//obfus:hotpath
func Uint(k Key, v uint64) Attr { return Attr{v, k, kindUint} }

// Bool is a boolean argument.
//
//obfus:hotpath
func Bool(k Key, v bool) Attr {
	var b uint64
	if v {
		b = 1
	}
	return Attr{b, k, kindBool}
}

// Hex is an address-like argument, exported as a "0x..." string.
//
//obfus:hotpath
func Hex(k Key, v uint64) Attr { return Attr{v, k, kindHex} }

// NS is a simulated duration, exported in nanoseconds.
//
//obfus:hotpath
func NS(k Key, d sim.Time) Attr { return Attr{uint64(d), k, kindNS} }

// Label is a string argument registered with Recorder.Label.
//
//obfus:hotpath
func Label(k Key, l LabelID) Attr { return Attr{uint64(l), k, kindLabel} }

// value decodes an argument's bits into the type its JSON export uses.
func (r *Recorder) value(kind argKind, bits uint64) any {
	switch kind {
	case kindInt:
		return int64(bits)
	case kindUint:
		return bits
	case kindBool:
		return bits != 0
	case kindLabel:
		return r.strs[bits]
	case kindHex:
		return fmt.Sprintf("%#x", bits)
	default:
		return psToNS(int64(bits))
	}
}
