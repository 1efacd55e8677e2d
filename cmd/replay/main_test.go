package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"obfusmem"
)

// traceCSV renders a short mcf trace in the cmd/tracegen format.
func traceCSV(t *testing.T) []byte {
	t.Helper()
	reqs, err := obfusmem.GenerateTrace("mcf", 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obfusmem.WriteTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replay runs the program on the trace fed through stdin.
func replay(t *testing.T, trace []byte, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(append([]string{"-trace", "-"}, args...), bytes.NewReader(trace), &out, &errb)
	return code, out.String(), errb.String()
}

// rows returns the scheme column of each table row after the header.
func rows(stdout string) []string {
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n")[1:] {
		names = append(names, strings.Fields(line)[0])
	}
	return names
}

func TestEveryRegisteredSchemeAccepted(t *testing.T) {
	tr := traceCSV(t)
	for _, s := range obfusmem.Schemes() {
		code, out, errs := replay(t, tr, "-protection", s)
		if code != 0 {
			t.Errorf("-protection %s: exit %d: %s", s, code, errs)
			continue
		}
		if got := rows(out); len(got) != 1 || got[0] != s {
			t.Errorf("-protection %s printed rows %v", s, got)
		}
	}
}

func TestRetiredSpellingRejected(t *testing.T) {
	code, out, errs := replay(t, traceCSV(t), "-protection", "none")
	if code != 2 {
		t.Fatalf("-protection none: exit %d, want 2", code)
	}
	if out != "" {
		t.Errorf("rejected run printed %q", out)
	}
	for _, s := range obfusmem.Schemes() {
		if !strings.Contains(errs, s) {
			t.Errorf("error message %q does not list %q", errs, s)
		}
	}
}

func TestAllFollowsSchemesOrder(t *testing.T) {
	code, out, errs := replay(t, traceCSV(t), "-protection", "all")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if got, want := strings.Join(rows(out), " "), strings.Join(obfusmem.Schemes(), " "); got != want {
		t.Errorf("rows %q, want %q", got, want)
	}
}

func TestRowMatchesReplayTrace(t *testing.T) {
	tr := traceCSV(t)
	code, out, errs := replay(t, tr, "-protection", "all", "-channels", "2", "-seed", "5")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	reqs, err := obfusmem.ReadTrace(bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	replayOn := func(scheme string) obfusmem.Result {
		m, err := obfusmem.NewMachine(obfusmem.MachineConfig{Scheme: scheme, Channels: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return m.ReplayTrace(scheme, reqs)
	}
	base, res := replayOn("unprotected"), replayOn("obfusmem-auth")
	want := fmt.Sprintf("%-16s %14v %9.0f ns %11.1f%%",
		"obfusmem-auth", res.ExecTime, res.MeanReadNS, obfusmem.Overhead(base, res))
	if !strings.Contains(out, want+"\n") {
		t.Errorf("output\n%s\nhas no row %q", out, want)
	}
}

// TestSingleSchemeOverheadVsUnprotected: a run that prints one protected
// scheme still measures its overhead against an unprotected replay, so the
// row is nonzero and identical to that scheme's row in the all run.
func TestSingleSchemeOverheadVsUnprotected(t *testing.T) {
	tr := traceCSV(t)
	overhead := func(out, scheme string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == scheme {
				return f[len(f)-1]
			}
		}
		t.Fatalf("no %s row in\n%s", scheme, out)
		return ""
	}
	_, all, _ := replay(t, tr, "-protection", "all")
	for _, s := range []string{"oram", "obfusmem-auth"} {
		code, out, errs := replay(t, tr, "-protection", s)
		if code != 0 {
			t.Fatalf("-protection %s: exit %d: %s", s, code, errs)
		}
		got := overhead(out, s)
		if got == "0.0%" {
			t.Errorf("-protection %s: overhead %s, want nonzero (unprotected baseline)", s, got)
		}
		if want := overhead(all, s); got != want {
			t.Errorf("-protection %s: overhead %s, want %s as in the all run", s, got, want)
		}
	}
}
