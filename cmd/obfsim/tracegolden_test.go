package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// traceGoldenRuns are the traced invocations pinned by
// testdata/trace_exports.sha256: the default machine, Palermo, a faulted
// run (recovery spans and instants), and a ring small enough to wrap so the
// export carries a non-zero droppedSpans and the attribution drops samples.
var traceGoldenRuns = []struct {
	name  string
	extra []string
}{
	{"default", nil},
	{"palermo", []string{"-trace-mode", "palermo"}},
	{"faults", []string{"-trace-faults", "0.005"}},
	{"limit", []string{"-trace-limit", "200"}},
}

// TestTraceExportGolden byte-compares the Chrome trace and attribution JSON
// of small traced runs against SHA-256 digests of the reference exports, so
// any change to the recorder's storage must keep both exports identical.
// Regenerate a digest with
//
//	obfsim -exp none -requests 300 -seed 7 -trace-out t.json -attrib-out a.json [extra flags]
//	sha256sum t.json a.json
func TestTraceExportGolden(t *testing.T) {
	want := readDigests(t, filepath.Join("testdata", "trace_exports.sha256"))
	for _, tc := range traceGoldenRuns {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string]string{
				tc.name + ".trace.json":  filepath.Join(dir, "trace.json"),
				tc.name + ".attrib.json": filepath.Join(dir, "attrib.json"),
			}
			args := append([]string{
				"-exp", "none", "-requests", "300", "-seed", "7",
				"-trace-out", files[tc.name+".trace.json"],
				"-attrib-out", files[tc.name+".attrib.json"],
			}, tc.extra...)
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
			}
			for golden, path := range files {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				got := hex.EncodeToString(sum[:])
				if w, ok := want[golden]; !ok {
					t.Errorf("no digest for %s in testdata", golden)
				} else if got != w {
					t.Errorf("%s: sha256 %s, want %s (export is no longer byte-identical)", golden, got, w)
				}
			}
		})
	}
}

// readDigests parses "<hex sha256> <name>" lines.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
