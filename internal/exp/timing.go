package exp

import (
	"fmt"

	"obfusmem/internal/attack"
	"obfusmem/internal/cpu"
	"obfusmem/internal/sim"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// TimingOblivious evaluates the Section 6.2 extension the paper sketches
// as future work: fixed-cadence request issue with undropped dummies and
// worst-case reply padding. It reports (a) the timing side channel before
// and after — can an observer tell two different programs apart from
// request timing alone? — and (b) what obliviousness costs in execution
// time and PCM traffic.
func TimingOblivious(opts Options) *stats.Table {
	t := stats.NewTable("Section 6.2 extension: timing-oblivious ObfusMem",
		"Quantity", "ObfusMem", "ObfusMem (timing-oblivious)", "Notes")

	run := func(bench string, oblivious bool) (*attack.Observer, cpu.Result, *system.System) {
		cfg := system.DefaultConfig(system.ObfusMem)
		cfg.Obfus.TimingOblivious = oblivious
		p, err := workload.ByName(bench)
		if err != nil {
			panic(err)
		}
		sys := system.New(cfg)
		obs := attack.NewObserver(1, 1<<21)
		sys.Bus().AttachObserver(obs)
		res := cpu.Run(p, opts.Requests, sys, opts.CPU, opts.Seed+3)
		return obs, res, sys
	}

	bin := 25 * sim.Nanosecond

	// Distinguishability of two different programs from timing.
	oA, _, _ := run("milc", false)
	oB, _, _ := run("libquantum", false)
	plainDist := attack.TimingDistance(oA, oB, bin)
	oAo, resAo, sysAo := run("milc", true)
	oBo, _, _ := run("libquantum", true)
	oblivDist := attack.TimingDistance(oAo, oBo, bin)
	t.AddRow("program distinguishability (TV, milc vs libquantum)",
		fmt.Sprintf("%.3f", plainDist), fmt.Sprintf("%.3f", oblivDist),
		"attacker advantage from request timing alone")
	t.AddRow("inter-arrival regularity (modal mass)",
		fmt.Sprintf("%.3f", oA.TimingRegularity(bin)),
		fmt.Sprintf("%.3f", oAo.TimingRegularity(bin)),
		"1.0 = perfectly periodic issue")

	// Cost on a memory-intensive benchmark.
	_, resA, sysA := run("milc", false)
	base, _ := runOne(opts, system.DefaultConfig(system.Unprotected), "milc")
	t.AddRow("milc execution-time overhead vs unprotected",
		fmt.Sprintf("%.1f%%", cpu.Overhead(base, resA)),
		fmt.Sprintf("%.1f%%", cpu.Overhead(base, resAo)),
		"worst-case reply padding dominates")
	t.AddRow("PCM array writes",
		fmt.Sprintf("%d", sysA.Memory().TotalPCMStats().ArrayWrites),
		fmt.Sprintf("%d", sysAo.Memory().TotalPCMStats().ArrayWrites),
		"undropped dummy writes wear the NVM")
	stA := sysA.Obfus().Stats()
	stAo := sysAo.Obfus().Stats()
	t.AddRow("dummies dropped at memory",
		fmt.Sprintf("%d", stA.DroppedAtMemory), fmt.Sprintf("%d", stAo.DroppedAtMemory),
		"obliviousness forbids dropping (Section 6.2)")
	t.AddRow("idle epochs filled with dummy pairs",
		"0", fmt.Sprintf("%d", stAo.IdleEpochFills), "constant-rate traffic")
	t.AddNote("paper: \"accesses can be made timing oblivious by spacing timing of requests, " +
		"assuming worst timing case, and not dropping dummy requests\"")
	return t
}
