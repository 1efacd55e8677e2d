//go:build benchtraj

// Perf-trajectory snapshot: TestEmitBenchTrajectory measures wall-clock
// simulator cost (event engine, per-scheme ns/request, metrics, tracing,
// recovery, leakage and campaign overheads, sharded scaling) and writes the
// BENCH_*.json snapshot. Wall-clock gates are meaningless on shared or
// loaded hardware and the snapshot is a tracked file, so this file is built
// only under the benchtraj tag:
//
//	go test -tags benchtraj -run TestEmitBenchTrajectory .   (make bench)
package obfusmem_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"obfusmem/internal/attack"
	"obfusmem/internal/bus"
	"obfusmem/internal/campaign"
	"obfusmem/internal/cpu"
	"obfusmem/internal/exp"
	"obfusmem/internal/keys"
	"obfusmem/internal/leakage"
	"obfusmem/internal/memctl"
	"obfusmem/internal/metrics"
	"obfusmem/internal/obfus"
	"obfusmem/internal/sim"
	"obfusmem/internal/stats"
	"obfusmem/internal/system"
	"obfusmem/internal/trace"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// benchTrajectoryFile is this PR's entry in the BENCH_*.json perf
// trajectory: one machine-readable snapshot per PR, committed at the repo
// root, so simulator throughput and headline model numbers can be compared
// across the PR sequence. benchPrevTrajectoryFile is the preceding PR's
// committed snapshot, used as the regression baseline.
const (
	benchTrajectoryFile     = "BENCH_PR9.json"
	benchPrevTrajectoryFile = "BENCH_PR8.json"
)

// trajectoryRun is one wall-clock measurement in the trajectory file.
type trajectoryRun struct {
	Name         string  `json:"name"`
	Requests     int     `json:"requests"`
	NSPerRequest float64 `json:"ns_per_request"` // best of reps: simulator cost
}

// shardedRun is one point on the sharded-engine intra-run scaling curve.
type shardedRun struct {
	Shards       int     `json:"shards"`
	EventsPerSec float64 `json:"events_per_sec"`
	WallClockSec float64 `json:"wall_clock_sec"`
	SpeedupX     float64 `json:"speedup_x"` // vs the shards=1 sequential reference
}

// trajectory is the BENCH_*.json schema.
type trajectory struct {
	PR       int             `json:"pr"`
	Label    string          `json:"label"`
	Go       string          `json:"go"`
	GOOS     string          `json:"goos"`
	GOARCH   string          `json:"goarch"`
	Runs     []trajectoryRun `json:"runs"`
	Headline struct {
		Requests        int     `json:"requests"`
		ORAMOverheadPct float64 `json:"oram_overhead_pct"`
		ObfusOverhead   float64 `json:"obfus_overhead_pct"`
		SpeedupX        float64 `json:"speedup_x"`
	} `json:"headline"`
	MetricsOverheadPct    float64 `json:"metrics_overhead_pct"`          // enabled vs disabled, same run
	TraceOverheadPct      float64 `json:"trace_overhead_pct"`            // tracing on vs off, same run
	RecoveryOverheadPct   float64 `json:"recovery_overhead_pct"`         // recovery protocol armed, zero faults, vs recovery off
	LeakageOverheadPct    float64 `json:"leakage_overhead_pct"`          // observer + leakage evaluation on vs off, same run
	CampaignOverheadPct   float64 `json:"campaign_overhead_pct"`         // journaled campaign per cell vs raw same-cell loop
	CampaignOverheadPerMS float64 `json:"campaign_overhead_ms_per_cell"` // absolute per-cell durability tax (hash + fsync'd commit + merge share)
	VsPrevPct             float64 `json:"vs_prev_pct"`                   // nil-off ns/request vs previous PR's snapshot

	// Engine compares the free-list event engine against the frozen
	// pre-rework boxed container/heap baseline (sim.BaselineEngine) on the
	// same 64-deep churn workload.
	Engine struct {
		EventsPerSec           float64 `json:"events_per_sec"`
		BaselineEventsPerSec   float64 `json:"baseline_events_per_sec"`
		SpeedupX               float64 `json:"speedup_x"`
		AllocsPerEvent         float64 `json:"allocs_per_event"`
		BaselineAllocsPerEvent float64 `json:"baseline_allocs_per_event"`
	} `json:"engine"`
	// Sharded is the sharded-engine scaling curve: the 8-channel open-loop
	// configuration (the Figure 5 channel count) run at shards ∈ {1,2,4,8},
	// with the shards=1 sequential reference as the baseline. Cores records
	// the machine's CPU count because the curve is meaningless without it:
	// conservative-lookahead workers cannot outrun the sequential reference
	// on a single core (the workers just take turns), so the ≥2x speedup
	// acceptance assertion is gated on Cores >= 4 and the recorded numbers
	// are always the honest measurement, whatever the hardware.
	// BackendsCellSec records one `-exp backends` closed-loop cell on the
	// sequential engine, the cross-PR anchor showing the sharded work left
	// the reference path's cost unchanged.
	Sharded struct {
		Cores           int          `json:"cores"`
		Channels        int          `json:"channels"`
		RequestsPerLane int          `json:"requests_per_lane"`
		Runs            []shardedRun `json:"runs"`
		BackendsCellSec float64      `json:"backends_cell_sec"`
	} `json:"sharded"`
	// ObfusLegAllocsPerOp is the steady-state allocation count of one
	// authenticated read+write pair through the full pooled datapath
	// (recovery armed, zero faults) after warmup; the 0 target is asserted
	// hard in internal/obfus's TestReadWriteLegZeroAllocs.
	ObfusLegAllocsPerOp float64 `json:"obfus_leg_allocs_per_op"`
	// SuiteWallClockSec is the wall-clock cost of the headline Table 3 run
	// (3 machines x 15 benchmarks at Headline.Requests), comparable across
	// PR snapshots on the same hardware.
	SuiteWallClockSec float64 `json:"suite_wall_clock_sec"`
}

// engineChurnEvents sizes the events-per-second measurement; large enough
// that per-call timer overhead vanishes, small enough to stay sub-second.
const engineChurnEvents = 2_000_000

// measureChurn times a pre-warmed engine's Step loop (best of reps) and
// samples its steady-state allocation rate.
func measureChurn(step func(), reps int) (eventsPerSec, allocsPerEvent float64) {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < engineChurnEvents; i++ {
			step()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(engineChurnEvents) / best.Seconds(), testing.AllocsPerRun(10000, step)
}

// newEngineChurn builds the 64-deep self-sustaining churn (every fired
// event schedules a successor) on the free-list engine, mirroring
// BenchmarkEngineChurn in internal/sim.
func newEngineChurn() func() {
	e := sim.NewEngine()
	var fn func()
	fn = func() { e.Schedule(e.Now()+sim.Time(1+e.Fired()%13), fn) }
	for i := 0; i < 64; i++ {
		e.Schedule(sim.Time(i), fn)
	}
	return func() { e.Step() }
}

// newBaselineChurn builds the identical churn on the frozen pre-rework
// engine.
func newBaselineChurn() func() {
	e := sim.NewBaselineEngine()
	var n uint64
	var fn func()
	fn = func() { n++; e.Schedule(e.Now()+sim.Time(1+n%13), fn) }
	for i := 0; i < 64; i++ {
		e.Schedule(sim.Time(i), fn)
	}
	return func() { e.Step() }
}

// obfusLegAllocs replicates internal/obfus's steady-state rig (recovery
// armed, zero faults, two channels) and measures allocations per
// authenticated read+write pair after warmup.
func obfusLegAllocs() float64 {
	const channels = 2
	cfg := obfus.DefaultAuth()
	cfg.Recovery = obfus.DefaultRecovery()
	b := bus.New(bus.DefaultConfig(channels))
	mcfg := memctl.DefaultConfig(channels)
	mcfg.PCM.AdaptiveIdleClose = 0
	mc := memctl.New(mcfg)
	table := keys.NewSessionKeyTable(channels, mc.Mapper().ChannelOf)
	for ch := 0; ch < channels; ch++ {
		var k [16]byte
		k[0] = byte(ch + 1)
		k[15] = 0xA5
		table.SetKey(ch, k)
	}
	ctrl := obfus.New(cfg, b, mc, table, xrand.New(42))
	at := sim.Time(0)
	for i := 0; i < 32; i++ {
		ctrl.Read(at, uint64(0x1000+64*i))
		ctrl.Write(at, uint64(0x9000+64*i), at)
		at += 200 * sim.Nanosecond
	}
	addr := uint64(0)
	return testing.AllocsPerRun(500, func() {
		ctrl.Read(at, 0x1000+addr)
		ctrl.Write(at, 0x9000+addr, at)
		addr = (addr + 64) % 4096
		at += 200 * sim.Nanosecond
	})
}

// shardedScaling measures the open-loop run's wall clock and event
// throughput at each shard count (best of reps). Every run is the same
// simulation — the byte-identity gate (TestShardsOneVsManyIdentical)
// guarantees identical results — so the curve isolates pure engine cost.
func shardedScaling(perLane, reps int, shardCounts []int) []shardedRun {
	runs := make([]shardedRun, 0, len(shardCounts))
	for _, shards := range shardCounts {
		best := time.Duration(1<<63 - 1)
		var fired uint64
		for r := 0; r < reps; r++ {
			cfg := system.DefaultOpenLoopConfig()
			cfg.Shards = shards
			cfg.Requests = perLane
			start := time.Now()
			res := system.RunOpenLoop(cfg)
			if d := time.Since(start); d < best {
				best = d
			}
			fired = res.EventsFired
		}
		runs = append(runs, shardedRun{
			Shards:       shards,
			EventsPerSec: float64(fired) / best.Seconds(),
			WallClockSec: best.Seconds(),
		})
	}
	for i := range runs {
		runs[i].SpeedupX = runs[0].WallClockSec / runs[i].WallClockSec
	}
	return runs
}

// wallClockRun measures simulator wall-clock cost per request for one
// machine configuration (best of reps, to shed scheduler noise). With
// traced set, the run carries a fresh span recorder through the system and
// the core model — the tracing-on cost.
func wallClockRun(tb testing.TB, cfg system.Config, bench string, n, reps int, traced bool) float64 {
	tb.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		tb.Fatal(err)
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		ccfg := cpu.DefaultConfig()
		if traced {
			rec := trace.New(trace.DefaultLimit)
			cfg.Trace = rec
			ccfg.Trace = rec
		}
		sys := system.New(cfg)
		start := time.Now()
		cpu.Run(p, n, sys, ccfg, cfg.Seed+7)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// leakageWallClock measures one observed run — passive bus observer,
// defender-side request probe, full leakage evaluation after the run —
// and returns ns/request (best of reps), the leakage-scoring-on side of
// the trajectory's LeakageOverheadPct.
func leakageWallClock(tb testing.TB, cfg system.Config, bench string, n, reps int) float64 {
	tb.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		tb.Fatal(err)
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		sys := system.New(cfg)
		obs := attack.NewObserver(cfg.Channels, 1<<21)
		sys.Bus().AttachObserver(obs)
		probe := leakage.NewProbe(sys)
		start := time.Now()
		cpu.Run(p, n, probe, cpu.DefaultConfig(), cfg.Seed+7)
		leakage.Evaluate(obs.WireTrace(), probe.Issued(), nil)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// campaignWallClock measures the journaled campaign runner's per-cell
// orchestration tax: the same four-cell grid run (a) through campaign.Run
// — manifest expansion, content hashing, fsync'd journal commits, merge —
// and (b) as a raw loop over the identical simulations. Returns per-cell
// nanoseconds for both (best of reps).
func campaignWallClock(tb testing.TB, n, reps int) (campPerCell, rawPerCell float64) {
	tb.Helper()
	man := campaign.Manifest{
		Name:     "bench",
		Requests: n,
		Schemes:  []string{"unprotected", "obfusmem-auth"},
		Workloads: []string{
			"milc", "mcf",
		},
		Seeds: []uint64{9},
	}
	const cells = 4
	bestCamp := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		dir, err := os.MkdirTemp("", "bench-campaign")
		if err != nil {
			tb.Fatal(err)
		}
		start := time.Now()
		cr, err := campaign.NewRunner(man, campaign.Options{Dir: dir, Workers: 1})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := cr.Run(context.Background()); err != nil {
			tb.Fatal(err)
		}
		if d := time.Since(start); d < bestCamp {
			bestCamp = d
		}
		os.RemoveAll(dir)
	}

	bestRaw := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for _, scheme := range man.Schemes {
			for _, bench := range man.Workloads {
				cfg, err := system.DefaultConfigByName(scheme)
				if err != nil {
					tb.Fatal(err)
				}
				cfg.Seed = 9
				p, err := workload.ByName(bench)
				if err != nil {
					tb.Fatal(err)
				}
				cpu.Run(p, n, system.New(cfg), cpu.DefaultConfig(), cfg.Seed+7)
			}
		}
		if d := time.Since(start); d < bestRaw {
			bestRaw = d
		}
	}
	return float64(bestCamp.Nanoseconds()) / cells, float64(bestRaw.Nanoseconds()) / cells
}

// TestEmitBenchTrajectory regenerates the BENCH_*.json snapshot and
// evaluates its wall-clock gates. It runs only under the benchtraj tag
// (make bench), never in the ordinary suite.
func TestEmitBenchTrajectory(t *testing.T) {
	if testing.Short() {
		// Wall-clock measurements are meaningless under -short's companions
		// (-race instrumentation in particular inflates them several-fold).
		t.Skip("trajectory snapshot needs undisturbed wall-clock runs")
	}
	const n, reps = 3000, 3
	traj := trajectory{
		PR:     9,
		Label:  "sharded intra-run simulation: per-channel event queues with conservative lookahead synchronization",
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
	}

	// Event-engine before/after on identical churn. The ≥1.5x target is the
	// engine rework's acceptance line; the hard error trips only on a gross
	// miss so noisy shared hardware can't flake the suite.
	traj.Engine.EventsPerSec, traj.Engine.AllocsPerEvent = measureChurn(newEngineChurn(), reps)
	traj.Engine.BaselineEventsPerSec, traj.Engine.BaselineAllocsPerEvent = measureChurn(newBaselineChurn(), reps)
	traj.Engine.SpeedupX = traj.Engine.EventsPerSec / traj.Engine.BaselineEventsPerSec
	if traj.Engine.SpeedupX < 1.2 {
		t.Errorf("engine speedup %.2fx vs boxed-heap baseline, want >= 1.5x", traj.Engine.SpeedupX)
	}
	if traj.Engine.AllocsPerEvent != 0 {
		t.Errorf("engine churn allocates %.2f allocs/event, want 0", traj.Engine.AllocsPerEvent)
	}

	// Pooled-datapath allocation rate (0 target asserted hard in
	// internal/obfus; recorded here for the trajectory).
	traj.ObfusLegAllocsPerOp = obfusLegAllocs()

	// Sharded-engine scaling on the 8-channel open-loop configuration.
	// The ≥2x-at-4-shards acceptance line only makes sense with real
	// parallel hardware underneath: on fewer than 4 cores the workers
	// time-slice one another and the synchronization cost is all that's
	// left, so the assertion is gated on the core count and the snapshot
	// records whatever this machine honestly measured.
	traj.Sharded.Cores = runtime.NumCPU()
	traj.Sharded.Channels = system.DefaultOpenLoopConfig().Channels
	traj.Sharded.RequestsPerLane = 600
	traj.Sharded.Runs = shardedScaling(traj.Sharded.RequestsPerLane, reps, []int{1, 2, 4, 8})
	for _, r := range traj.Sharded.Runs {
		if r.Shards == 4 && traj.Sharded.Cores >= 4 && r.SpeedupX < 2 {
			t.Errorf("sharded engine speedup %.2fx at shards=4 on %d cores, want >= 2x",
				r.SpeedupX, traj.Sharded.Cores)
		}
	}
	backendsStart := time.Now()
	if tbl := exp.Backends(exp.QuickOptions()); tbl.Rows() == 0 {
		t.Fatal("empty backends table")
	}
	traj.Sharded.BackendsCellSec = time.Since(backendsStart).Seconds()

	base := system.DefaultConfig(system.Unprotected)
	base.Seed = 9
	obf := system.DefaultConfig(system.ObfusMem)
	obf.Seed = 9
	pal := system.DefaultConfig(system.Palermo)
	pal.Seed = 9
	plainNS := wallClockRun(t, base, "milc", n, reps, false)
	obfNS := wallClockRun(t, obf, "milc", n, reps, false)
	palNS := wallClockRun(t, pal, "milc", n, reps, false)
	traj.Runs = append(traj.Runs,
		trajectoryRun{Name: "unprotected/milc", Requests: n, NSPerRequest: plainNS},
		trajectoryRun{Name: "obfusmem-auth/milc", Requests: n, NSPerRequest: obfNS},
		trajectoryRun{Name: "palermo/milc", Requests: n, NSPerRequest: palNS},
	)

	// Same protected run with the observability layer on: the delta is the
	// cost of metrics, which must stay under 5%. Wall-clock on shared CI
	// hardware is noisy, so the hard assertion uses a generous multiple;
	// the recorded number is the honest measurement.
	obfMet := obf
	obfMet.Metrics = metrics.NewRegistry()
	metNS := wallClockRun(t, obfMet, "milc", n, reps, false)
	traj.Runs = append(traj.Runs,
		trajectoryRun{Name: "obfusmem-auth+metrics/milc", Requests: n, NSPerRequest: metNS})
	traj.MetricsOverheadPct = (metNS - obfNS) / obfNS * 100
	if traj.MetricsOverheadPct > 25 {
		t.Errorf("metrics overhead %.1f%% is far beyond the <5%% budget", traj.MetricsOverheadPct)
	}

	// Same run again with the tracing layer on (span recorder through the
	// system and the core model). Tracing is a debugging tool, not an
	// always-on instrument, so its budget is looser than metrics'; the
	// recorded number keeps it honest.
	trcNS := wallClockRun(t, obf, "milc", n, reps, true)
	traj.Runs = append(traj.Runs,
		trajectoryRun{Name: "obfusmem-auth+trace/milc", Requests: n, NSPerRequest: trcNS})
	traj.TraceOverheadPct = (trcNS - obfNS) / obfNS * 100

	// Same run with the fault-recovery protocol armed but zero faults
	// injected. The recovery code lives entirely on failure paths, so this
	// must be within noise of the recovery-off run (the simulated-time
	// equality is asserted exactly in TestRecoveryZeroFaultNoOverhead; this
	// records the simulator's wall-clock side of the same claim).
	obfRec := obf
	obfRec.Obfus.Recovery = obfus.DefaultRecovery()
	recNS := wallClockRun(t, obfRec, "milc", n, reps, false)
	traj.Runs = append(traj.Runs,
		trajectoryRun{Name: "obfusmem-auth+recovery/milc", Requests: n, NSPerRequest: recNS})
	traj.RecoveryOverheadPct = (recNS - obfNS) / obfNS * 100
	if traj.RecoveryOverheadPct > 25 {
		t.Errorf("zero-fault recovery overhead %.1f%% is far beyond the within-noise budget", traj.RecoveryOverheadPct)
	}

	// Same run with the leakage observatory attached: passive observer on
	// the bus, request probe on the defender side, and the full
	// inference-and-scoring evaluation after the run. Leakage quantification
	// is an offline analysis, so its cost rides outside the simulated
	// machine; the recorded number keeps the whole harness honest.
	leakNS := leakageWallClock(t, obf, "milc", n, reps)
	traj.Runs = append(traj.Runs,
		trajectoryRun{Name: "obfusmem-auth+leakage/milc", Requests: n, NSPerRequest: leakNS})
	traj.LeakageOverheadPct = (leakNS - obfNS) / obfNS * 100

	// The campaign runner's orchestration tax: hashing every cell identity,
	// fsync'ing every journal commit, and merging results. The tax is a
	// fixed cost per cell — dominated by the durability fsyncs — so the
	// percentage is large against this benchmark's deliberately tiny cells
	// and vanishes against production-size ones; the absolute ms/cell is
	// the number that must stay bounded.
	campNS, rawNS := campaignWallClock(t, n, reps)
	traj.Runs = append(traj.Runs,
		trajectoryRun{Name: "campaign/4cells", Requests: n, NSPerRequest: campNS / float64(n)})
	traj.CampaignOverheadPct = (campNS - rawNS) / rawNS * 100
	traj.CampaignOverheadPerMS = (campNS - rawNS) / 1e6
	if traj.CampaignOverheadPerMS > 25 {
		t.Errorf("campaign orchestration tax %.1fms per cell, want fixed low-single-digit ms (hash + fsync'd commit)", traj.CampaignOverheadPerMS)
	}

	// Nil-off regression vs the previous PR's committed snapshot: the
	// tracing hooks must be free when disabled (<2% target). Wall clock on
	// shared hardware swings far more than 2% run to run, so the hard error
	// fires only on a gross (>50%) regression; the honest delta is recorded
	// in the snapshot.
	if raw, err := os.ReadFile(benchPrevTrajectoryFile); err == nil {
		var prev trajectory
		if err := json.Unmarshal(raw, &prev); err == nil {
			for _, r := range prev.Runs {
				if r.Name == "obfusmem-auth/milc" && r.NSPerRequest > 0 {
					traj.VsPrevPct = (obfNS - r.NSPerRequest) / r.NSPerRequest * 100
					if traj.VsPrevPct > 50 {
						t.Errorf("nil-off ns/request regressed %.1f%% vs %s", traj.VsPrevPct, benchPrevTrajectoryFile)
					}
				}
			}
		}
	}

	// Headline model numbers at a stable scale; the timed run doubles as
	// the suite wall-clock sample (3 machines x 15 benchmarks).
	o := exp.DefaultOptions()
	o.Requests = 1500
	suiteStart := time.Now()
	d := exp.Table3Numbers(o)
	traj.SuiteWallClockSec = time.Since(suiteStart).Seconds()
	traj.Headline.Requests = o.Requests
	traj.Headline.ORAMOverheadPct = stats.Mean(d.ORAMOverhead)
	traj.Headline.ObfusOverhead = stats.Mean(d.ObfusOverhead)
	traj.Headline.SpeedupX = stats.Mean(d.Speedup)

	raw, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(benchTrajectoryFile, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
