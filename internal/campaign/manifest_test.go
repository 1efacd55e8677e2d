package campaign

import (
	"strings"
	"testing"
)

func testManifest() Manifest {
	return Manifest{
		Name:       "test-grid",
		Requests:   300,
		Schemes:    []string{"unprotected", "obfusmem-auth"},
		Workloads:  []string{"milc", "mcf"},
		FaultRates: []float64{0, 1e-3},
		Seeds:      []uint64{1, 2},
	}
}

// TestCellsExpansion pins the canonical grid order and key properties.
func TestCellsExpansion(t *testing.T) {
	m := testManifest()
	cells := m.Cells()
	if len(cells) != 16 {
		t.Fatalf("grid has %d cells, want 2*2*2*2=16", len(cells))
	}
	// Outermost axis is the scheme: first half unprotected.
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
		want := "unprotected"
		if i >= 8 {
			want = "obfusmem-auth"
		}
		if c.Scheme != want {
			t.Fatalf("cell %d scheme %q, want %q (scheme must be the outermost axis)", i, c.Scheme, want)
		}
		if c.Key == "" || len(c.Key) != 32 {
			t.Fatalf("cell %d key %q not a 128-bit hex hash", i, c.Key)
		}
		if c.Channels != 2 || c.Requests != 300 {
			t.Fatalf("defaults not folded into cell: %+v", c)
		}
		if c.DeadlineNS != 1e6*300 {
			t.Fatalf("cell deadline %g, want requests*1e6", c.DeadlineNS)
		}
	}
	// Same manifest, same expansion and hash; a changed axis changes both.
	if m.Hash() != testManifest().Hash() {
		t.Error("manifest hash not reproducible")
	}
	m2 := testManifest()
	m2.Seeds = []uint64{1, 3}
	if m2.Hash() == m.Hash() {
		t.Error("different seeds produced the same manifest hash")
	}
	// Keys are unique across this grid (no accidental collisions).
	_, first := UniqueKeys(cells)
	if len(first) != 16 {
		t.Errorf("%d unique keys in a 16-cell grid of distinct configs", len(first))
	}
}

// TestExplicitDefaultsHashIdentically: spelling out the defaults must not
// change cell identity, or resuming after adding an explicit default to
// the manifest would re-run everything.
func TestExplicitDefaultsHashIdentically(t *testing.T) {
	a := testManifest()
	b := testManifest()
	b.Channels = 2
	b.DeadlineNSPerRequest = 1e6
	b.MaxAttempts = 3
	if a.Hash() != b.Hash() {
		t.Fatal("explicit defaults changed the manifest hash")
	}
}

// TestDedup: duplicate seeds produce duplicate keys that execute once.
func TestDedupKeys(t *testing.T) {
	m := testManifest()
	m.Seeds = []uint64{7, 7}
	cells := m.Cells()
	order, first := UniqueKeys(cells)
	if len(cells) != 16 || len(order) != 8 {
		t.Fatalf("got %d cells / %d unique, want 16 / 8", len(cells), len(order))
	}
	for _, k := range order {
		if first[k].Key != k {
			t.Fatalf("representative cell for %s carries key %s", k, first[k].Key)
		}
	}
}

// TestManifestValidation rejects the failure modes that must die before a
// journal is created.
func TestManifestValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Manifest)
		want string
	}{
		{"no requests", func(m *Manifest) { m.Requests = 0 }, "requests"},
		{"no schemes", func(m *Manifest) { m.Schemes = nil }, "no schemes"},
		{"no workloads", func(m *Manifest) { m.Workloads = nil }, "no workloads"},
		{"bad scheme", func(m *Manifest) { m.Schemes = []string{"rot13"} }, "unknown scheme"},
		{"bad workload", func(m *Manifest) { m.Workloads = []string{"doom"} }, "doom"},
		{"bad rate", func(m *Manifest) { m.FaultRates = []float64{1.5} }, "outside [0,1)"},
		// Found by FuzzParseManifest: requests × deadline overflowed to +Inf
		// and Cells() panicked hashing the cell identity.
		{"overflowing deadline", func(m *Manifest) { m.DeadlineNSPerRequest = 1e308 }, "overflows"},
	}
	for _, tc := range cases {
		m := testManifest()
		tc.mod(&m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestParseManifestRejectsUnknownFields: a typo'd axis must not silently
// shrink the grid.
func TestParseManifestRejectsUnknownFields(t *testing.T) {
	_, err := ParseManifest([]byte(`{"name":"x","requests":100,"schemes":["unprotected"],"workloads":["milc"],"seedz":[1,2,3]}`))
	if err == nil || !strings.Contains(err.Error(), "seedz") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}
