package system

import (
	"reflect"
	"testing"

	"obfusmem/internal/backend"
	"obfusmem/internal/bus"
	"obfusmem/internal/cpu"
	"obfusmem/internal/fault"
	"obfusmem/internal/metrics"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/workload"
)

// interceptOutcome is everything a run reports that must not depend on
// whether a bus consumer is attached.
type interceptOutcome struct {
	Result  cpu.Result
	Obfus   obfus.Stats
	Pads    [2]uint64
	Energy  float64
	Bus     []bus.ChannelStats
	Acct    backend.Accounting
	Metrics metrics.Snapshot
	Values  [8]Block
	Done    [8]sim.Time
	OK      [8]bool
}

// runIntercepted drives one machine through a closed-loop run plus a few
// value-carrying round trips, with or without a no-op bus observer.
func runIntercepted(t *testing.T, cfg Config, observed bool) interceptOutcome {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	s := New(cfg)
	if observed {
		s.Bus().AttachObserver(bus.ObserverFunc(func(sim.Time, *bus.Packet) {}))
	}
	if !observed && cfg.Fault == nil && s.Bus().Intercepted() {
		t.Fatal("untapped bus reports Intercepted")
	}
	if observed && !s.Bus().Intercepted() {
		t.Fatal("observed bus does not report Intercepted")
	}
	p, _ := workload.ByName("mcf")
	var o interceptOutcome
	o.Result = cpu.Run(p, 1500, s, cpu.DefaultConfig(), 7)
	at := o.Result.ExecTime
	for i := range o.Values {
		var blk Block
		for j := range blk {
			blk[j] = byte(i*37 + j)
		}
		addr := uint64(0x40000 + 64*i)
		at = s.WriteData(at, addr, blk)
		o.Values[i], o.Done[i], o.OK[i] = s.ReadData(at, addr)
		at = o.Done[i]
	}
	s.Drain(at)
	if c := s.Obfus(); c != nil {
		o.Obfus = c.Stats()
		o.Pads = [2]uint64{c.PadsProc(), c.PadsMem()}
		o.Energy = c.CryptoEnergyPJ()
	}
	o.Bus = s.Bus().Stats()
	o.Acct = s.Accounting()
	o.Metrics = reg.Snapshot()
	return o
}

// TestInterceptDifferential runs every registered scheme and the ObfusMem
// design points twice, once on an untapped bus (where the controller elides
// the command ciphertext and MAC bytes nothing can read) and once with a
// no-op observer attached (which forces them to be computed), and requires
// identical statistics, ledgers, metrics, value round trips, and timing.
func TestInterceptDifferential(t *testing.T) {
	type variant struct {
		name    string
		backend string
		obfus   func(*obfus.Config)
		fault   bool
	}
	var variants []variant
	for _, name := range BackendNames() {
		variants = append(variants, variant{name: name, backend: name})
	}
	with := func(name, base string, f func(*obfus.Config)) {
		variants = append(variants, variant{name: name, backend: base, obfus: f})
	}
	with("encrypt-then-mac", "obfusmem-auth", func(c *obfus.Config) { c.MAC = obfus.EncryptThenMAC })
	with("unopt", "obfusmem-auth", func(c *obfus.Config) { c.Policy = obfus.PolicyUNOPT })
	with("random-dummy", "obfusmem-auth", func(c *obfus.Config) { c.Dummy = obfus.RandomAddress })
	with("original-dummy", "obfusmem", func(c *obfus.Config) { c.Dummy = obfus.OriginalAddress })
	with("symmetric", "obfusmem-auth", func(c *obfus.Config) { c.Symmetric = true })
	with("symmetric-mac-none", "obfusmem", func(c *obfus.Config) { c.Symmetric = true })
	with("timing-oblivious", "obfusmem-auth", func(c *obfus.Config) { c.TimingOblivious = true })
	with("no-substitute-real", "obfusmem-auth", func(c *obfus.Config) { c.SubstituteReal = false })
	with("write-then-read", "obfusmem", func(c *obfus.Config) { c.Order = obfus.WriteThenRead })
	with("recovery", "obfusmem-auth", func(c *obfus.Config) { c.Recovery = obfus.DefaultRecovery() })
	variants = append(variants, variant{name: "recovery-faults", backend: "obfusmem-auth",
		obfus: func(c *obfus.Config) { c.Recovery = obfus.DefaultRecovery() }, fault: true})

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg, err := DefaultConfigByName(v.backend)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Channels = 2
			cfg.Seed = 3
			if v.obfus != nil {
				v.obfus(&cfg.Obfus)
			}
			if v.fault {
				fc := fault.Uniform(0.005, 0)
				cfg.Fault = &fc
			}
			untapped := runIntercepted(t, cfg, false)
			observed := runIntercepted(t, cfg, true)
			if !reflect.DeepEqual(untapped, observed) {
				t.Fatalf("observer changed the run:\nuntapped: %+v\nobserved: %+v", untapped, observed)
			}
			if untapped.Result.Requests == 0 {
				t.Fatal("run served no requests")
			}
		})
	}
}
