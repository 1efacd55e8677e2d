package bus

import (
	"testing"

	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

func TestWireBytes(t *testing.T) {
	p := &Packet{HasCmd: true}
	if p.WireBytes() != CmdBytes {
		t.Fatalf("cmd-only = %d, want %d", p.WireBytes(), CmdBytes)
	}
	p.Data = make([]byte, DataBytes)
	p.HasMAC = true
	if p.WireBytes() != CmdBytes+DataBytes+MACBytes {
		t.Fatalf("full packet = %d, want %d", p.WireBytes(), CmdBytes+DataBytes+MACBytes)
	}
}

func TestTransferTime(t *testing.T) {
	b := New(DefaultConfig(1))
	// 64 bytes at 12.8 GB/s = 5 ns (the paper's tBURST).
	if got := b.TransferTime(64); got != 5*sim.Nanosecond {
		t.Fatalf("TransferTime(64) = %v, want 5ns", got)
	}
	if got := b.TransferTime(16); got != 1250 {
		t.Fatalf("TransferTime(16) = %v ps, want 1250", got)
	}
}

func TestTransferSerializes(t *testing.T) {
	b := New(DefaultConfig(1))
	p1 := &Packet{Channel: 0, Dir: ProcToMem, HasCmd: true, Data: make([]byte, 64)}
	p2 := &Packet{Channel: 0, Dir: ProcToMem, HasCmd: true, Data: make([]byte, 64)}
	a1, _ := b.Transfer(0, p1)
	a2, _ := b.Transfer(0, p2)
	if a2 <= a1 {
		t.Fatalf("second transfer arrived at %v, not after first %v", a2, a1)
	}
	// Reply direction is independent.
	p3 := &Packet{Channel: 0, Dir: MemToProc, Data: make([]byte, 64)}
	a3, _ := b.Transfer(0, p3)
	if a3 >= a1 {
		t.Fatalf("reply path should not queue behind request path: %v vs %v", a3, a1)
	}
}

func TestChannelsIndependent(t *testing.T) {
	b := New(DefaultConfig(2))
	p0 := &Packet{Channel: 0, Dir: ProcToMem, Data: make([]byte, 64)}
	p1 := &Packet{Channel: 1, Dir: ProcToMem, Data: make([]byte, 64)}
	a0, _ := b.Transfer(0, p0)
	a1, _ := b.Transfer(0, p1)
	if a0 != a1 {
		t.Fatalf("parallel channels should deliver at the same time: %v vs %v", a0, a1)
	}
}

func TestObserverSeesTraffic(t *testing.T) {
	b := New(DefaultConfig(2))
	var seen []*Packet
	var times []sim.Time
	b.AttachObserver(ObserverFunc(func(at sim.Time, p *Packet) {
		seen = append(seen, p)
		times = append(times, at)
	}))
	p := &Packet{Channel: 1, Dir: ProcToMem, HasCmd: true, Type: Read, Addr: 0x40, IsDummy: false}
	b.Transfer(100, p)
	if len(seen) != 1 || seen[0].Channel != 1 {
		t.Fatalf("observer saw %d packets", len(seen))
	}
	if times[0] != 100 {
		t.Fatalf("observation at %v, want 100", times[0])
	}
}

type dropTamperer struct{ dropped int }

func (d *dropTamperer) Tamper(at sim.Time, p *Packet) *Packet {
	d.dropped++
	return nil
}

func TestTampererDrop(t *testing.T) {
	b := New(DefaultConfig(1))
	d := &dropTamperer{}
	b.SetTamperer(d)
	_, got := b.Transfer(0, &Packet{Channel: 0, HasCmd: true})
	if got != nil {
		t.Fatal("dropped packet still delivered")
	}
	if d.dropped != 1 {
		t.Fatalf("dropped = %d", d.dropped)
	}
	b.SetTamperer(nil)
	_, got = b.Transfer(0, &Packet{Channel: 0, HasCmd: true})
	if got == nil {
		t.Fatal("packet dropped after tamperer removed")
	}
}

func TestStatsAndUtilization(t *testing.T) {
	b := New(DefaultConfig(2))
	for i := 0; i < 10; i++ {
		b.Transfer(0, &Packet{Channel: 0, Dir: ProcToMem, HasCmd: true, Data: make([]byte, 64), IsDummy: i%2 == 0})
	}
	st := b.Stats()
	if st[0].Packets != 10 || st[1].Packets != 0 {
		t.Fatalf("packets = %d/%d", st[0].Packets, st[1].Packets)
	}
	if st[0].DummyPackets != 5 {
		t.Fatalf("dummies = %d, want 5", st[0].DummyPackets)
	}
	if st[0].Bytes != 10*80 {
		t.Fatalf("bytes = %d, want 800", st[0].Bytes)
	}
	if b.TotalBytes() != 800 {
		t.Fatalf("TotalBytes = %d", b.TotalBytes())
	}
	// 10 transfers of 80B at 12.8GB/s = 62.5ns busy.
	u := b.Utilization(0, 125*sim.Nanosecond)
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
	b.Reset()
	if b.TotalBytes() != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestIdleAt(t *testing.T) {
	b := New(DefaultConfig(2))
	b.Transfer(0, &Packet{Channel: 0, Dir: ProcToMem, Data: make([]byte, 64)})
	if b.IdleAt(0, 2*sim.Nanosecond) {
		t.Error("channel 0 should be busy during transfer")
	}
	if !b.IdleAt(0, 10*sim.Nanosecond) {
		t.Error("channel 0 should be idle after transfer")
	}
	if !b.IdleAt(1, 0) {
		t.Error("channel 1 never used, should be idle")
	}
}

func TestBadChannelPanics(t *testing.T) {
	b := New(DefaultConfig(1))
	defer func() {
		if recover() == nil {
			t.Error("transfer on invalid channel did not panic")
		}
	}()
	b.Transfer(0, &Packet{Channel: 3})
}

func TestPropagationDelay(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PropagationDelay = 7 * sim.Nanosecond
	b := New(cfg)
	arrive, _ := b.Transfer(0, &Packet{Channel: 0, Data: make([]byte, 64)})
	if arrive != 12*sim.Nanosecond {
		t.Fatalf("arrive = %v, want 12ns (5 burst + 7 propagation)", arrive)
	}
}

// stubInjector implements FaultInjector with a scripted behaviour.
type stubInjector struct {
	drop  bool
	stall sim.Time
	calls int
}

func (s *stubInjector) Inject(at sim.Time, p *Packet) (*Packet, sim.Time) {
	s.calls++
	if s.drop {
		return nil, 0
	}
	return p, s.stall
}

func TestFaultInjectorDropsAndStalls(t *testing.T) {
	b := New(DefaultConfig(1))
	inj := &stubInjector{stall: 7 * sim.Nanosecond}
	b.SetFaultInjector(inj)

	p := &Packet{Channel: 0, Dir: ProcToMem, HasCmd: true}
	base, _ := New(DefaultConfig(1)).Transfer(0, p)
	arrive, del := b.Transfer(0, p)
	if del != p {
		t.Fatal("stall-only injection must deliver the packet")
	}
	if arrive != base+7*sim.Nanosecond {
		t.Fatalf("arrive = %v, want base %v + 7ns stall", arrive, base)
	}

	inj.drop, inj.stall = true, 0
	if _, del := b.Transfer(arrive, p); del != nil {
		t.Fatal("dropped packet was delivered")
	}
	if inj.calls != 2 {
		t.Fatalf("injector saw %d packets, want 2", inj.calls)
	}
}

// TestFaultAfterTamperer: a tamperer-dropped packet never reaches the fault
// injector (faults strike the signal actually on the wire).
func TestFaultAfterTamperer(t *testing.T) {
	b := New(DefaultConfig(1))
	b.SetTamperer(tamperFunc(func(at sim.Time, p *Packet) *Packet { return nil }))
	inj := &stubInjector{}
	b.SetFaultInjector(inj)
	b.Transfer(0, &Packet{Channel: 0, Dir: ProcToMem, HasCmd: true})
	if inj.calls != 0 {
		t.Fatalf("injector saw a packet the tamperer had already dropped")
	}
}

type tamperFunc func(at sim.Time, p *Packet) *Packet

func (f tamperFunc) Tamper(at sim.Time, p *Packet) *Packet { return f(at, p) }

// TestResetRestoresCleanState is the satellite check for the recovery
// layer: after a faulted, tampered, control-traffic-carrying run, Reset
// must return per-channel stats and occupancy to a truly clean state while
// keeping the attached observers, tamperer, and fault injector installed.
func TestResetRestoresCleanState(t *testing.T) {
	b := New(DefaultConfig(2))
	var observed int
	b.AttachObserver(ObserverFunc(func(at sim.Time, p *Packet) { observed++ }))
	dropEvery2 := 0
	b.SetTamperer(tamperFunc(func(at sim.Time, p *Packet) *Packet {
		dropEvery2++
		if dropEvery2%2 == 0 {
			return nil
		}
		return p
	}))
	inj := &stubInjector{stall: 3 * sim.Nanosecond}
	b.SetFaultInjector(inj)

	mk := func(ch int) *Packet {
		return &Packet{Channel: ch, Dir: ProcToMem, HasCmd: true, HasMAC: true,
			Data: make([]byte, DataBytes), IsDummy: ch == 1, Control: ControlKind(ch)}
	}
	for i := 0; i < 6; i++ {
		b.Transfer(sim.Time(i), mk(i%2))
	}
	if b.Stats()[0].Packets == 0 || b.Stats()[1].ControlPackets == 0 {
		t.Fatal("faulted run recorded no traffic; test is vacuous")
	}

	b.Reset()

	for ch, st := range b.Stats() {
		if st != (ChannelStats{}) {
			t.Fatalf("channel %d stats not clean after Reset: %+v", ch, st)
		}
	}
	if b.TotalBytes() != 0 {
		t.Fatalf("TotalBytes = %d after Reset", b.TotalBytes())
	}
	for ch := 0; ch < 2; ch++ {
		if !b.IdleAt(ch, 0) {
			t.Fatalf("channel %d request link busy after Reset", ch)
		}
		if u := b.Utilization(ch, sim.Nanosecond); u != 0 {
			t.Fatalf("channel %d utilization %v after Reset", ch, u)
		}
	}
	// Occupancy restarts from scratch: a transfer at t=0 arrives exactly
	// where it would on a fresh bus (plus the injector's scripted stall).
	fresh := New(DefaultConfig(2))
	wantArrive, _ := fresh.Transfer(0, mk(0))
	obsBefore, tamperBefore, injBefore := observed, dropEvery2, inj.calls
	gotArrive, del := b.Transfer(0, mk(0))
	if gotArrive != wantArrive+inj.stall {
		t.Fatalf("post-Reset arrival %v, want fresh-bus %v + stall %v", gotArrive, wantArrive, inj.stall)
	}
	if observed != obsBefore+1 {
		t.Fatal("observer detached by Reset")
	}
	if dropEvery2 != tamperBefore+1 {
		t.Fatal("tamperer detached by Reset")
	}
	if inj.calls != injBefore+1 || del == nil && dropEvery2%2 != 0 {
		t.Fatal("fault injector detached by Reset")
	}
}

// TestTransferTracedZeroAllocs pins the traced bus leg: with a recorder
// attached (ring already wrapped), a transfer records its wait and leg
// spans, dummy-suffixed names included, without allocating.
func TestTransferTracedZeroAllocs(t *testing.T) {
	rec := trace.New(64)
	cfg := DefaultConfig(2)
	cfg.Trace = rec
	b := New(cfg)
	real := &Packet{Channel: 1, Dir: ProcToMem, HasCmd: true, Type: Read, Seq: 1}
	dummy := &Packet{Channel: 1, Dir: MemToProc, HasCmd: true, Data: make([]byte, DataBytes),
		HasMAC: true, Type: Write, IsDummy: true, Seq: 2}
	at := sim.Time(0)
	step := func() {
		at += sim.Nanosecond
		b.Transfer(at, real)
		b.Transfer(at, dummy)
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("traced Transfer allocates %v times per step, want 0", allocs)
	}
	seen := map[string]bool{}
	for _, s := range rec.Spans() {
		seen[s.Name] = true
	}
	for _, want := range []names.Name{names.LegCmd, names.Dummy(names.LegCmdDataMAC), names.SpanLinkWait} {
		if !seen[string(want)] {
			t.Errorf("no %q span recorded", want)
		}
	}
}
