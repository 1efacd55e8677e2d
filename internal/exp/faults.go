package exp

import (
	"fmt"

	"obfusmem/internal/cpu"
	"obfusmem/internal/fault"
	"obfusmem/internal/obfus"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
)

// faultRates is the sweep axis of the -exp faults experiment: per-packet
// probability applied uniformly to every fault class (loss, command flip,
// data flip, MAC flip, stall).
var faultRates = []float64{0, 1e-4, 1e-3, 1e-2}

// Faults evaluates the fault-tolerant bus protocol: an authenticated
// ObfusMem machine runs a memory-intensive benchmark while the wire
// injects transient faults at increasing rates, and the NACK / timeout /
// retransmit / counter-resync machinery recovers. The acceptance bar is
// the last column: at every rate, every real request either completes or
// is refused against an explicit quarantine event — "lost" (failed legs
// unaccounted for by quarantine) must be zero.
func Faults(opts Options) *stats.Table {
	t := stats.NewTable("Fault injection: recovery under transient bus faults (milc, ObfusMem+Auth, 2 channels)",
		"Fault rate", "Slowdown", "Faults", "Retransmits", "NACKs", "Resyncs", "Recovered", "Quarantines", "Lost")

	mk := func(rate float64) system.Config {
		cfg := system.DefaultConfig(system.ObfusMemAuth)
		cfg.Channels = 2
		cfg.Obfus.Recovery = obfus.DefaultRecovery()
		if rate > 0 {
			fc := fault.Uniform(rate, 0) // Seed 0: derive from the machine seed
			cfg.Fault = &fc
		}
		return cfg
	}

	var base cpu.Result
	for i, rate := range faultRates {
		res, sys := runOne(opts, mk(rate), "milc")
		if i == 0 {
			base = res
		}
		st := sys.Obfus().Stats()
		var injected uint64
		if inj := sys.FaultInjector(); inj != nil {
			injected = inj.Stats().Faults()
		}
		t.AddRow(
			fmt.Sprintf("%g", rate),
			fmt.Sprintf("%.2f%%", cpu.Overhead(base, res)),
			fmt.Sprintf("%d", injected),
			fmt.Sprintf("%d", st.Retransmits),
			fmt.Sprintf("%d", st.NACKsSent),
			fmt.Sprintf("%d", st.Resyncs),
			fmt.Sprintf("%d", st.Recovered),
			fmt.Sprintf("%d", st.Quarantines),
			fmt.Sprintf("%d", st.UnaccountedFailures()),
		)
	}
	t.AddNote("slowdown is execution time relative to the fault-free run of the same machine")
	t.AddNote("Lost = failed real requests not covered by an explicit quarantine event; must be 0 at every rate")
	t.AddNote("recovery: MAC-fail -> NACK, drop -> timeout, then counter resync + retransmit " +
		"(budget 4, exponential backoff); exhaustion quarantines the channel fail-stop")
	return t
}
