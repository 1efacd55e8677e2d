package exp

import (
	"fmt"

	"obfusmem/internal/cpu"
	"obfusmem/internal/leakage"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// backendFaultRate is the per-packet fault probability of the matrix's
// fault leg (the middle rate of the -exp faults sweep).
const backendFaultRate = 1e-3

// backendConfig builds the named scheme's default machine at the matrix's
// common operating point.
func backendConfig(name string) system.Config {
	cfg := system.DefaultConfig(name)
	cfg.Channels = 2
	return cfg
}

// Backends runs the head-to-head scheme matrix (-exp backends): every
// registered protection backend executes the identical workload suite with
// identical per-benchmark seeds, and a fault leg replays milc under an
// identical fault schedule, checking each backend's request-conservation
// ledger (Issued == Completed + Lost + Refused). Schemes with a recovery
// protocol run it; schemes without one must still account for every lost
// request rather than silently absorbing it.
//
// The matrix is intentionally not part of -exp all: results_full.txt
// predates it and stays bit-identical.
func Backends(opts Options) *stats.Table {
	names := system.Schemes()
	specs := make([]ModeSpec, 0, len(names))
	for _, n := range names {
		specs = append(specs, ModeSpec{Name: n, Cfg: backendConfig(n)})
	}
	res := runSuite(opts, specs)

	// Security columns come from the same sweep the -exp leakage matrix
	// runs, so the two tables always agree for a given seed.
	leak := make(map[string]leakage.SchemeLeakage)
	for _, s := range LeakageReport(opts).Schemes {
		leak[s.Scheme] = s
	}

	t := stats.NewTable("Backend head-to-head: registered schemes on identical workloads, seeds, and faults (2 channels)",
		"Scheme", "Overhead", "Read ns", "vs ORAM", "MI b/req", "Recov", "Class adv", "Issued", "Done", "Lost", "Refused", "Ledger")
	for _, n := range names {
		var ov, rd, sp []float64
		for _, p := range workload.SPEC2006() {
			r := res[n][p.Name]
			ov = append(ov, cpu.Overhead(res["unprotected"][p.Name], r))
			rd = append(rd, r.MeanReadNS)
			sp = append(sp, cpu.Speedup(r, res["oram"][p.Name]))
		}

		// Fault leg: same machine, same milc trace and seed for every
		// scheme, uniform transient faults on the wire. Schemes whose
		// backend has the recovery protocol arm it (like -exp faults).
		fcfg := backendConfig(n)
		fcfg.InjectFaults(backendFaultRate)
		_, sys := runOne(opts, fcfg, "milc")
		acct := sys.Accounting()
		ledger := "balanced"
		if gap := acct.Gap(); gap != 0 {
			ledger = fmt.Sprintf("UNBALANCED (gap %d)", gap)
		}

		t.AddRow(n,
			fmt.Sprintf("%.1f%%", stats.Mean(ov)),
			fmt.Sprintf("%.1f", stats.Mean(rd)),
			fmt.Sprintf("%.1fx", stats.Mean(sp)),
			fmt.Sprintf("%.4f", leak[n].MIBitsPerRequest),
			fmt.Sprintf("%.4f", leak[n].RecoveryAccuracy),
			fmt.Sprintf("%.4f", leak[n].ClassifierAdvantage),
			fmt.Sprintf("%d", acct.Issued),
			fmt.Sprintf("%d", acct.Completed),
			fmt.Sprintf("%d", acct.Lost),
			fmt.Sprintf("%d", acct.Refused),
			ledger,
		)
	}
	t.AddNote("overhead/read-latency/speedup: means over the SPEC suite vs unprotected and ORAM on the same traces")
	t.AddNote("Issued..Refused: request ledger of a milc run at fault rate %g; Ledger checks Issued == Done + Lost + Refused", backendFaultRate)
	t.AddNote("schemes without recovery surface faulted requests as Lost (also the fault.lost_requests metric) instead of dropping them silently")
	t.AddNote("MI/Recov/Class adv: leakage quantification (see -exp leakage for the full matrix and methodology)")
	return t
}
