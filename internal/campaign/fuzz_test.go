package campaign

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

// maxFuzzCells bounds the grid FuzzParseManifest expands. Axis lengths
// multiply, so a few hundred bytes of JSON can legitimately declare a grid
// of millions of cells; expanding those twice per input would measure the
// allocator, not the parser.
const maxFuzzCells = 4096

// FuzzParseManifest feeds arbitrary bytes to the manifest decoder.
// ParseManifest must never panic; an accepted manifest must pass Validate,
// and two parses of the same bytes must expand to identical cells and
// hashes.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte(`{"name":"test-grid","requests":300,"schemes":["unprotected","obfusmem-auth"],"workloads":["milc","mcf"],"faultRates":[0,0.001],"seeds":[1,2]}`))
	f.Add([]byte(`{"name":"x","requests":100,"schemes":["unprotected"],"workloads":["milc"],"seeds":[7,7]}`))
	f.Add([]byte(`{"name":"x","requests":100,"schemes":["unprotected"],"workloads":["milc"],"channels":2,"deadlineNSPerRequest":1e6,"maxAttempts":3}`))
	f.Add([]byte(`{"name":"x","requests":100,"schemes":["unprotected"],"workloads":["milc"],"seedz":[1,2,3]}`))
	f.Add([]byte(`{"name":"x","requests":0,"schemes":["rot13"],"workloads":["doom"],"faultRates":[1.5]}`))
	f.Add([]byte(`{"name":"x","requests":2,"schemes":["unprotected"],"workloads":["milc"],"deadlineNSPerRequest":1e308}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := ParseManifest(raw)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted manifest fails Validate: %v", err)
		}
		d := m.Defaulted()
		if len(d.Schemes)*len(d.Workloads)*len(d.FaultRates)*len(d.Seeds) > maxFuzzCells {
			return
		}
		m2, err := ParseManifest(raw)
		if err != nil {
			t.Fatalf("second parse of accepted bytes failed: %v", err)
		}
		if c1, c2 := m.Cells(), m2.Cells(); !reflect.DeepEqual(c1, c2) {
			t.Fatalf("Cells differ across parses of the same bytes:\n%+v\n%+v", c1, c2)
		}
		if h1, h2 := m.Hash(), m2.Hash(); h1 != h2 {
			t.Fatalf("Hash differs across parses of the same bytes: %s vs %s", h1, h2)
		}
	})
}

// fuzzJournalSeed returns a valid three-record obfj1 journal.
func fuzzJournalSeed(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	for _, r := range []Record{
		{Type: "begin", Name: "demo", ManifestHash: "abc", Cells: 4, Unique: 3},
		{Type: "cell", Key: "k1", Status: statusDone, Attempts: 1, Result: &CellResult{Scheme: "unprotected", ExecPS: 42}},
		{Type: "shutdown", Reason: "complete", Committed: 1},
	} {
		line, err := encodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

// FuzzOpenJournal writes arbitrary bytes as a journal file and opens it.
// OpenJournal must never panic: it yields records or a *CorruptError. A
// successful open truncates any torn tail, so reopening the file must give
// the same records with no dropped tail.
func FuzzOpenJournal(f *testing.F) {
	valid := fuzzJournalSeed(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // torn tail: last record cut mid-payload
	lines := strings.SplitAfter(string(valid), "\n")
	flipped := []byte(lines[1])
	flipped[len(flipped)-5] ^= 0x20 // CRC no longer matches the payload
	f.Add([]byte(lines[0] + string(flipped) + lines[2]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := tmpJournal(t)
		if err := os.WriteFile(path, raw, 0o666); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("open failed with %T, want *CorruptError: %v", err, err)
			}
			return
		}
		recs := j.Records()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen after a successful open failed: %v", err)
		}
		defer j2.Close()
		if j2.DroppedTail() {
			t.Fatal("reopen still reports a torn tail after the first open truncated it")
		}
		if !reflect.DeepEqual(recs, j2.Records()) {
			t.Fatalf("reopen changed the records:\n%+v\n%+v", recs, j2.Records())
		}
	})
}
