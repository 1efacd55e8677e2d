package backend_test

// The backend conformance suite: every registered protection scheme must
// satisfy the same contracts regardless of how it is implemented —
// round-tripping names through the registry, bit-identical replay under
// the same seed, exact reproduction of the pre-registry machines, request
// conservation under injected faults, and (where the scheme claims a hot
// path) an allocation-free steady-state leg. New backends get all of this
// for free the moment they register.

import (
	"slices"
	"testing"

	"obfusmem/internal/backend"
	"obfusmem/internal/cpu"
	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// conformanceConfig is the common operating point of the suite: the named
// scheme's defaults on 2 channels with a fixed machine seed.
func conformanceConfig(t *testing.T, name string) system.Config {
	t.Helper()
	cfg, err := system.DefaultConfigByName(name)
	if err != nil {
		t.Fatalf("DefaultConfigByName(%q): %v", name, err)
	}
	cfg.Channels = 2
	cfg.Seed = 12345
	return cfg
}

// runMilc drives one milc run at conformance scale and returns the result
// with its machine.
func runMilc(t *testing.T, cfg system.Config) (cpu.Result, *system.System) {
	t.Helper()
	p, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	sys := system.New(cfg)
	return cpu.Run(p, 2500, sys, cpu.DefaultConfig(), 9), sys
}

// TestRegistryRoundTrip pins the single-source-of-truth contract for
// scheme names: system's scheme constants are exactly the registered
// names, and every registered name resolves through DefaultConfigByName,
// builds a machine, and survives the round trip back out of the machine's
// Config. Before the registry,
// "obfusmem-auth" existed only inside a CLI switch and could not be named
// by library callers at all.
func TestRegistryRoundTrip(t *testing.T) {
	names := system.BackendNames()
	if len(names) < 4 {
		t.Fatalf("registry has %d backends, want at least the paper's four: %v", len(names), names)
	}
	consts := []string{system.Unprotected, system.EncryptOnly, system.ObfusMem,
		system.ObfusMemAuth, system.ORAM, system.Palermo}
	slices.Sort(consts)
	if reg := backend.Names(); !slices.Equal(consts, reg) {
		t.Errorf("system scheme constants %v, registry %v", consts, reg)
	}
	for _, name := range names {
		cfg, err := system.DefaultConfigByName(name)
		if err != nil {
			t.Errorf("DefaultConfigByName(%q): %v", name, err)
			continue
		}
		if cfg.Backend != name {
			t.Errorf("DefaultConfigByName(%q).Backend = %q", name, cfg.Backend)
		}
		sys, err := system.NewChecked(cfg)
		if err != nil {
			t.Errorf("NewChecked(%q): %v", name, err)
			continue
		}
		if got := sys.Config().Backend; got != name {
			t.Errorf("machine built as %q reports Backend %q", name, got)
		}
	}
	if _, err := system.DefaultConfigByName("no-such-scheme"); err == nil {
		t.Error("DefaultConfigByName accepted an unregistered scheme name")
	}
}

// TestForeignOptionsRejected pins the config-validation bugfix: options
// blocks that the selected backend does not consume are a configuration
// error, not a silent no-op. (DefaultConfig used to set ORAMConcurrency on
// every mode; each backend now defaults its own block in its construct
// hook.)
func TestForeignOptionsRejected(t *testing.T) {
	cfg := conformanceConfig(t, "obfusmem-auth")
	cfg.ORAMConcurrency = 8
	if _, err := system.NewChecked(cfg); err == nil {
		t.Error("ORAMConcurrency on an obfusmem-auth machine was not rejected")
	}
	cfg = conformanceConfig(t, "unprotected")
	cfg.Obfus = obfus.DefaultAuth()
	if _, err := system.NewChecked(cfg); err == nil {
		t.Error("Obfus options on an unprotected machine were not rejected")
	}
	cfg = conformanceConfig(t, "oram")
	cfg.Palermo.PathBlocks = 8
	if _, err := system.NewChecked(cfg); err == nil {
		t.Error("Palermo options on an oram machine were not rejected")
	}
}

// TestSameSeedDeterminism replays the identical workload twice on freshly
// built machines of every backend and requires bit-identical results: same
// execution time, same bus traffic, same accounting ledger.
func TestSameSeedDeterminism(t *testing.T) {
	for _, name := range system.BackendNames() {
		t.Run(name, func(t *testing.T) {
			resA, sysA := runMilc(t, conformanceConfig(t, name))
			resB, sysB := runMilc(t, conformanceConfig(t, name))
			if resA.ExecTime != resB.ExecTime {
				t.Errorf("exec time diverged: %d vs %d ps", resA.ExecTime, resB.ExecTime)
			}
			if a, b := sysA.Bus().TotalBytes(), sysB.Bus().TotalBytes(); a != b {
				t.Errorf("bus traffic diverged: %d vs %d bytes", a, b)
			}
			if a, b := sysA.Accounting(), sysB.Accounting(); a != b {
				t.Errorf("accounting diverged: %+v vs %+v", a, b)
			}
		})
	}
}

// preRegistryGolden are the exact outputs of the pre-refactor per-mode
// system (captured at the head of this PR, before internal/backend
// existed) on milc, 2500 requests, 2 channels, machine seed 12345, CPU
// seed 9. The registry-assembled machines must reproduce them bit for bit:
// the vtable indirection is a pure refactor with zero timing drift.
var preRegistryGolden = map[string]struct {
	execPS   sim.Time
	busBytes uint64
}{
	"unprotected":   {execPS: 131546345, busBytes: 200000},
	"encrypt-only":  {execPS: 137722266, busBytes: 215760},
	"obfusmem":      {execPS: 152695137, busBytes: 417600},
	"obfusmem-auth": {execPS: 160655660, busBytes: 477848},
	"oram":          {execPS: 2663731696, busBytes: 0},
}

func TestPreRegistryGoldenOutputs(t *testing.T) {
	for name, want := range preRegistryGolden {
		t.Run(name, func(t *testing.T) {
			res, sys := runMilc(t, conformanceConfig(t, name))
			if res.ExecTime != want.execPS {
				t.Errorf("exec time %d ps, pre-registry golden %d ps", res.ExecTime, want.execPS)
			}
			if got := sys.Bus().TotalBytes(); got != want.busBytes {
				t.Errorf("bus traffic %d bytes, pre-registry golden %d bytes", got, want.busBytes)
			}
		})
	}
}

// TestNoSilentlyLostRequests pins request conservation under injected
// faults for every backend: the ledger must balance (Issued == Completed +
// Lost + Refused), and any packet the injector dropped must show up either
// as a recovery (schemes with the retry protocol) or in the Lost column
// and the fault.lost_requests metric — never vanish into the latency
// distribution, which is exactly what the unprotected and encrypt-only
// machines used to do.
func TestNoSilentlyLostRequests(t *testing.T) {
	for _, name := range system.BackendNames() {
		t.Run(name, func(t *testing.T) {
			cfg := conformanceConfig(t, name)
			cfg.InjectFaults(1e-3)
			reg := metrics.NewRegistry()
			cfg.Metrics = reg
			res, sys := runMilc(t, cfg)
			acct := sys.Accounting()
			if gap := acct.Gap(); gap != 0 {
				t.Errorf("ledger unbalanced: %+v (gap %d)", acct, gap)
			}
			if name == "unprotected" {
				if got := res.Reads + res.Writes; acct.Issued != got {
					t.Errorf("issued %d requests, CPU retired %d", acct.Issued, got)
				}
			}
			if name == "obfusmem-auth" && acct.Lost != 0 {
				t.Errorf("recovery armed but %d requests lost", acct.Lost)
			}
			injLost := sys.FaultInjector().Stats().Losses
			metricLost := reg.Scope(names.ScopeFault).Counter(names.FaultLostRequests).Value()
			switch name {
			case "unprotected", "encrypt-only", "palermo":
				// No retransmit machinery: injector drops must surface.
				if injLost > 0 && acct.Lost == 0 {
					t.Errorf("injector dropped %d packets but the ledger shows 0 lost", injLost)
				}
				if metricLost != acct.Lost {
					t.Errorf("fault.lost_requests metric %d != ledger Lost %d", metricLost, acct.Lost)
				}
			}
		})
	}
}

// TestHotPathZeroAllocs drives a steady-state read+write leg through the
// system datapath of every backend whose descriptor claims
// Features.HotPath and requires zero allocations per operation once
// arenas, rings, and counter state are warm. The address set is fixed so
// cache/metadata structures reach their high-water mark during warm-up.
func TestHotPathZeroAllocs(t *testing.T) {
	for _, name := range system.BackendNames() {
		d, ok := backend.Lookup(name)
		if !ok {
			t.Fatalf("registered name %q does not Lookup", name)
		}
		if !d.Features.HotPath {
			continue
		}
		t.Run(name, func(t *testing.T) {
			sys := system.New(conformanceConfig(t, name))
			at := sim.Time(0)
			step := func() {
				for i := 0; i < 8; i++ {
					sys.Read(at, uint64(0x4000+64*i))
					sys.Write(at, uint64(0x8000+64*i))
					at += 400 * sim.Nanosecond
				}
			}
			for i := 0; i < 64; i++ { // warm-up: 512 reads + 512 writes
				step()
			}
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Errorf("steady-state leg allocates %.2f allocs/op, want 0", allocs/16)
			}
		})
	}
}
