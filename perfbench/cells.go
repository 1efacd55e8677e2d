package main

import (
	"fmt"
	"sort"

	"obfusmem/internal/obfus"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// cell is one simulated machine driven by one request stream: the unit a
// workload is made of. Every cell builds a fresh machine, so the modelled
// caches start empty exactly as in the paper experiments.
type cell struct {
	name    string
	scheme  string // backend registry name the cell's design point corresponds to
	cfg     system.Config
	prof    workload.Profile
	cpuSeed uint64

	// obfus-channels: position in the Figure 5 grid.
	channels int
	variant  int
	// observed: position in the leakage panel.
	bench, seedIdx int
}

// workloadDef is one benchmark workload: a fixed list of cells, each run
// closed loop for the same number of requests.
type workloadDef struct {
	name     string
	requests int // requests per cell
	observed bool
	cells    func(seed uint64) []cell
}

// The request counts keep every cell to a few milliseconds on the
// reference box, so a run makes enough passes for each cell's fastest pass
// to be steady; see README.md "Noise".
var workloads = []workloadDef{
	{name: "obfus-channels", requests: 1000, cells: obfusChannelsCells},
	{name: "schemes-plain", requests: 5000, cells: schemesPlainCells},
	{name: "observed", requests: 500, observed: true, cells: observedCells},
}

func workloadByName(name string) (workloadDef, error) {
	var have []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		have = append(have, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, have)
}

// runSeed is exp's per-benchmark machine seed (FNV-1a of the profile name,
// mixed with the footprint). It is repeated here because the cells must be
// exactly those of -exp figure5 and -exp leakage; TestCellsMatchExperiments
// holds the two in step.
func runSeed(global uint64, p workload.Profile) uint64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for i := 0; i < len(p.Name); i++ {
		h = (h ^ uint64(p.Name[i])) * fnvPrime64
	}
	return global ^ xrand.Mix64(h) ^ xrand.Mix64(uint64(p.FootprintMB))
}

// figure5Variants are the machines of one Figure 5 channel column, in the
// order exp.Figure5Numbers builds them.
var figure5Variants = []string{"base", "unopt", "unopt+auth", "opt", "opt+auth"}

// obfusChannelsCells is the grid of -exp figure5: the unprotected baseline
// and ObfusMem UNOPT/OPT with and without encrypt-and-MAC, at 1/2/4/8
// channels, over the 15 Table 1 profiles (300 cells).
func obfusChannelsCells(seed uint64) []cell {
	var out []cell
	for _, ch := range []int{1, 2, 4, 8} {
		for v, name := range figure5Variants {
			var cfg system.Config
			scheme := "unprotected"
			if name == "base" {
				cfg = system.DefaultConfig(system.Unprotected)
			} else {
				cfg = system.DefaultConfig(system.ObfusMem)
				oc := obfus.Default()
				oc.Policy = obfus.PolicyUNOPT
				if name == "opt" || name == "opt+auth" {
					oc.Policy = obfus.PolicyOPT
				}
				scheme = "obfusmem"
				if name == "unopt+auth" || name == "opt+auth" {
					oc.MAC = obfus.EncryptAndMAC
					scheme = "obfusmem-auth"
				}
				cfg.Obfus = oc
			}
			cfg.Channels = ch
			for _, p := range workload.SPEC2006() {
				c := cell{
					name:     fmt.Sprintf("ch%d/%s/%s", ch, name, p.Name),
					scheme:   scheme,
					cfg:      cfg,
					prof:     p,
					cpuSeed:  seed + 7,
					channels: ch,
					variant:  v,
				}
				c.cfg.Seed = runSeed(seed, p)
				out = append(out, c)
			}
		}
	}
	return out
}

// schemesPlainCells runs the schemes that put no AES or MD5 on the host
// path — unprotected, encrypt-only, Path ORAM and Palermo — at 1 and 2
// channels over the 15 profiles (120 cells).
func schemesPlainCells(seed uint64) []cell {
	var out []cell
	for _, scheme := range []string{"unprotected", "encrypt-only", "oram", "palermo"} {
		for _, ch := range []int{1, 2} {
			cfg, err := system.DefaultConfigByName(scheme)
			if err != nil {
				panic(err)
			}
			cfg.Channels = ch
			for _, p := range workload.SPEC2006() {
				c := cell{
					name:     fmt.Sprintf("%s/ch%d/%s", scheme, ch, p.Name),
					scheme:   scheme,
					cfg:      cfg,
					prof:     p,
					cpuSeed:  seed + 7,
					channels: ch,
				}
				c.cfg.Seed = runSeed(seed, p)
				out = append(out, c)
			}
		}
	}
	return out
}

// leakBenches and leakSeeds are the -exp leakage panel.
var leakBenches = []string{"mcf", "milc", "libquantum"}

const leakSeeds = 3

// schemeOrder is every registered scheme in -exp leakage's presentation
// order: the canonical progression first, later registrations sorted.
func schemeOrder() []string {
	preferred := []string{"unprotected", "encrypt-only", "obfusmem", "obfusmem-auth", "palermo", "oram"}
	have := make(map[string]bool)
	for _, n := range system.BackendNames() {
		have[n] = true
	}
	var out []string
	for _, n := range preferred {
		if have[n] {
			out = append(out, n)
			delete(have, n)
		}
	}
	var rest []string
	for n := range have {
		rest = append(rest, n)
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// observedCells is the -exp leakage panel: every registered scheme × mcf,
// milc, libquantum × 3 seeds at 2 channels. Each cell also carries a
// metrics registry, a trace recorder and a bus observer (see buildCell).
func observedCells(seed uint64) []cell {
	var out []cell
	for _, scheme := range schemeOrder() {
		cfg, err := system.DefaultConfigByName(scheme)
		if err != nil {
			panic(err)
		}
		cfg.Channels = 2
		for b, bench := range leakBenches {
			p, err := workload.ByName(bench)
			if err != nil {
				panic(err)
			}
			for s := 0; s < leakSeeds; s++ {
				salt := uint64(s) * 1009
				c := cell{
					name:     fmt.Sprintf("%s/%s/seed%d", scheme, bench, s),
					scheme:   scheme,
					cfg:      cfg,
					prof:     p,
					cpuSeed:  seed + salt + 3,
					channels: 2,
					bench:    b,
					seedIdx:  s,
				}
				c.cfg.Seed = runSeed(seed+salt, p)
				out = append(out, c)
			}
		}
	}
	return out
}
