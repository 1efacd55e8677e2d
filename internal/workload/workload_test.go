package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"obfusmem/internal/sim"
)

func TestSPEC2006Complete(t *testing.T) {
	ps := SPEC2006()
	if len(ps) != 15 {
		t.Fatalf("got %d profiles, want 15 (Table 1)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.IPC <= 0 || p.MPKI < 0 || p.GapNS <= 0 {
			t.Fatalf("profile %q has invalid Table 1 fields: %+v", p.Name, p)
		}
		if p.ReadFrac <= 0 || p.ReadFrac > 1 {
			t.Fatalf("profile %q ReadFrac = %v", p.Name, p.ReadFrac)
		}
		if p.RowLocality < 0 || p.RowLocality > 1 {
			t.Fatalf("profile %q RowLocality = %v", p.Name, p.RowLocality)
		}
	}
	for _, want := range []string{"bwaves", "mcf", "omnetpp", "gems", "hmmer"} {
		if !seen[want] {
			t.Fatalf("missing profile %q", want)
		}
	}
}

func TestTable1SelfConsistency(t *testing.T) {
	// Requests/KI × gap must equal compute time per KI within the clamp.
	for _, p := range SPEC2006() {
		perKI := p.nsPerKiloInstr()
		reqs := p.RequestsPerKI()
		if reqs <= 0 {
			t.Fatalf("%s: non-positive request rate", p.Name)
		}
		got := reqs * p.GapNS
		if math.Abs(got-perKI)/perKI > 0.001 {
			t.Fatalf("%s: reqs*gap = %v, want %v", p.Name, got, perKI)
		}
		// Demand reads can never exceed total requests (clamped).
		if p.MPKI > reqs*1.0001 && p.WritebacksPerKI() != 0 {
			t.Fatalf("%s: MPKI %v > requests %v without clamping", p.Name, p.MPKI, reqs)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil || p.Name != "mcf" {
		t.Fatalf("ByName(mcf) = %+v, %v", p, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestStreamStatistics(t *testing.T) {
	p, _ := ByName("bwaves")
	s := NewStream(p, 1)
	const n = 200000
	var gapSum float64
	reads := 0
	for i := 0; i < n; i++ {
		r := s.Next()
		gapSum += r.Gap.Float64Nanos()
		if !r.Write {
			reads++
		}
		if r.Addr%64 != 0 {
			t.Fatalf("unaligned address %#x", r.Addr)
		}
		if r.Addr >= uint64(p.FootprintMB)<<20 {
			t.Fatalf("address %#x outside footprint", r.Addr)
		}
	}
	meanGap := gapSum / n
	wantGap := p.GapNS - p.BaselineStallNS()
	if wantGap < 2 {
		wantGap = 2 // generator clamp
	}
	if math.Abs(meanGap-wantGap)/wantGap > 0.02 {
		t.Fatalf("mean compute gap = %v, want ~%v", meanGap, wantGap)
	}
	readFrac := float64(reads) / n
	if math.Abs(readFrac-p.ReadFrac) > 0.01 {
		t.Fatalf("read fraction = %v, want %v", readFrac, p.ReadFrac)
	}
}

func TestStreamRowLocality(t *testing.T) {
	for _, name := range []string{"libquantum", "mcf"} {
		p, _ := ByName(name)
		s := NewStream(p, 2)
		sameRow := 0
		last := s.Next().Addr
		const n = 50000
		for i := 0; i < n; i++ {
			r := s.Next()
			if r.Addr/1024 == last/1024 {
				sameRow++
			}
			last = r.Addr
		}
		frac := float64(sameRow) / n
		// Observed same-row fraction tracks the locality knob (plus small
		// accidental hits).
		if math.Abs(frac-p.RowLocality) > 0.1 {
			t.Fatalf("%s: same-row fraction = %v, want ~%v", name, frac, p.RowLocality)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	p, _ := ByName("milc")
	a, b := NewStream(p, 7), NewStream(p, 7)
	for i := 0; i < 1000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("streams diverged at request %d", i)
		}
	}
	c := NewStream(p, 8)
	diff := false
	a2 := NewStream(p, 7)
	for i := 0; i < 100; i++ {
		if a2.Next() != c.Next() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestStreamGapIsTime(t *testing.T) {
	p, _ := ByName("astar")
	s := NewStream(p, 3)
	for i := 0; i < 1000; i++ {
		if g := s.Next().Gap; g < 0 || g > sim.Millisecond {
			t.Fatalf("implausible gap %v", g)
		}
	}
}

func TestStreamNextZeroAllocs(t *testing.T) {
	p, _ := ByName("mcf") // low row locality: mostly Pareto jumps
	s := NewStream(p, 5)
	if allocs := testing.AllocsPerRun(1000, func() { s.Next() }); allocs != 0 {
		t.Errorf("Stream.Next allocates %.2f times per request, want 0", allocs)
	}
}

// TestStreamGolden pins every profile's request sequence: a digest of the
// first 4096 requests at seed 42, recorded before the stride sampler's
// constants were precomputed per stream.
func TestStreamGolden(t *testing.T) {
	h := fnv.New64a()
	var b [17]byte
	for _, p := range SPEC2006() {
		s := NewStream(p, 42)
		for i := 0; i < 4096; i++ {
			r := s.Next()
			binary.LittleEndian.PutUint64(b[0:], uint64(r.Gap))
			binary.LittleEndian.PutUint64(b[8:], r.Addr)
			b[16] = 0
			if r.Write {
				b[16] = 1
			}
			h.Write(b[:])
		}
	}
	if got, want := h.Sum64(), uint64(0xe4e0289c9113ef1d); got != want {
		t.Errorf("request-stream digest %#x, want %#x", got, want)
	}
}
