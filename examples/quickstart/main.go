// Quickstart: build one machine per registered protection scheme, run the same
// memory-intensive SPEC 2006 profile on each, and print the execution-time
// comparison that motivates the paper — ObfusMem obfuscates the access
// pattern for ~10% where ORAM costs ~10x.
package main

import (
	"fmt"
	"log"

	"obfusmem"
)

func main() {
	const bench = "mcf"
	const requests = 8000

	fmt.Printf("workload %s, %d memory requests per machine\n\n", bench, requests)
	fmt.Printf("%-16s %12s %8s %12s %10s\n", "scheme", "exec time", "IPC", "mean read", "overhead")

	var base obfusmem.Result
	for i, s := range obfusmem.Schemes() {
		m, err := obfusmem.NewMachine(obfusmem.MachineConfig{Scheme: s, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		res, err := m.RunBenchmark(bench, requests)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			base = res
		}
		fmt.Printf("%-16s %12v %8.2f %9.0f ns %9.1f%%\n",
			s, res.ExecTime, res.IPC, res.MeanReadNS, obfusmem.Overhead(base, res))
	}

	// The paper's headline: ObfusMem+Auth vs ORAM.
	mo, _ := obfusmem.NewMachine(obfusmem.MachineConfig{Scheme: "obfusmem-auth", Seed: 1})
	ro, _ := obfusmem.NewMachine(obfusmem.MachineConfig{Scheme: "oram", Seed: 1})
	a, _ := mo.RunBenchmark(bench, requests)
	b, _ := ro.RunBenchmark(bench, requests)
	fmt.Printf("\nObfusMem+Auth is %.1fx faster than the Path ORAM model on %s\n",
		obfusmem.Speedup(a, b), bench)

	// Dummy traffic bookkeeping: what obfuscation actually cost the memory.
	t := mo.Traffic()
	fmt.Printf("\nObfusMem traffic: %d real reads, %d real writes, %d dummies dropped at memory,\n",
		t.RealReads, t.RealWrites, t.DroppedAtMemory)
	fmt.Printf("%d substituted pairs, %d+%d AES pads (proc+mem), 0 extra PCM writes\n",
		t.SubstitutedPairs, t.PadsProcessor, t.PadsMemory)
}
