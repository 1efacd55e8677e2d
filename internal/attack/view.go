package attack

import (
	"obfusmem/internal/bus"
	"obfusmem/internal/sim"
)

// Wire is the attacker-visible projection of one bus transfer: exactly the
// fields an adversary tapping the exposed interconnect can read. Inference
// code (internal/leakage and this package's attacks) must consume traces
// through this type only; the wireonly analyzer enforces that discipline.
//
// Plaintext is included deliberately: under Kerckhoffs's principle the
// attacker knows which scheme is deployed, and on an unprotected bus the
// command field's structure is self-evident from the traffic itself.
type Wire struct {
	At        sim.Time
	Channel   int
	Dir       bus.Direction
	Cmd       [bus.CmdBytes]byte
	HasCmd    bool
	Size      int // total wire bytes of the transfer
	Plaintext bool
}

// Truth is the ground-truth projection of the same transfer, exposed only
// so scoring code can judge what an inference pipeline recovered. It must
// never feed the inference itself.
type Truth struct {
	Type  bus.ReqType
	Addr  uint64
	Dummy bool
}

// WireTrace returns the attacker-visible view of every recorded transfer,
// in observation order. The slice is the observer's own storage, not a
// copy: callers must treat it as read-only.
func (o *Observer) WireTrace() []Wire { return o.wire }

// TruthTrace returns the ground-truth view parallel to WireTrace: entry i
// describes the same transfer as WireTrace()[i]. For scoring only; like
// WireTrace it is the observer's own storage and read-only.
func (o *Observer) TruthTrace() []Truth { return o.truth }
