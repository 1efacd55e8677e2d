// Command replay runs a recorded request trace (the CSV format of
// cmd/tracegen) against a machine under a chosen protection scheme and
// reports execution statistics — comparing schemes on identical traffic.
// -protection takes a registered scheme name, or all for every scheme in
// presentation order (unprotected first, the baseline of the overhead
// column).
//
// Example:
//
//	tracegen -bench mcf -n 50000 > mcf.csv
//	replay -trace mcf.csv -protection obfusmem-auth
//	replay -trace mcf.csv -protection all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"obfusmem"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole program behind flag parsing, returning the exit code;
// factored out of main so tests can drive it in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemes := obfusmem.Schemes()
	var (
		tracePath = fs.String("trace", "", "trace CSV (required; - for stdin)")
		prot      = fs.String("protection", "all", strings.Join(schemes, "|")+"|all")
		channels  = fs.Int("channels", 1, "memory channels (1,2,4,8)")
		seed      = fs.Uint64("seed", 1, "machine seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tracePath == "" {
		fmt.Fprintln(stderr, "replay: -trace is required")
		fs.Usage()
		return 2
	}
	if *prot != "all" {
		if !slices.Contains(schemes, *prot) {
			fmt.Fprintf(stderr, "replay: unknown scheme %q (registered: %s; or all)\n",
				*prot, strings.Join(schemes, ", "))
			return 2
		}
		schemes = []string{*prot}
	}

	in := stdin
	if *tracePath != "-" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, "replay:", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	reqs, err := obfusmem.ReadTrace(in)
	if err != nil {
		fmt.Fprintln(stderr, "replay:", err)
		return 1
	}
	fmt.Fprintf(stderr, "replay: %d requests loaded\n", len(reqs))

	fmt.Fprintf(stdout, "%-16s %14s %12s %12s\n", "protection", "exec time", "mean read", "overhead")
	var base obfusmem.Result
	for i, name := range schemes {
		m, err := obfusmem.NewMachine(obfusmem.MachineConfig{
			Scheme: name, Channels: *channels, Seed: *seed})
		if err != nil {
			fmt.Fprintln(stderr, "replay:", err)
			return 1
		}
		res := m.ReplayTrace(name, reqs)
		if i == 0 {
			base = res
		}
		fmt.Fprintf(stdout, "%-16s %14v %9.0f ns %11.1f%%\n",
			name, res.ExecTime, res.MeanReadNS, obfusmem.Overhead(base, res))
	}
	return 0
}
