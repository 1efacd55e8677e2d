// Package campaign is the crash-safe orchestration layer over the
// simulator: it executes manifest-defined scheme × workload × fault-rate ×
// seed grids on a worker pool, with robustness as the contract rather than
// a best effort.
//
// The guarantees, in order of importance:
//
//   - Durability. Every completed cell is committed to an append-only,
//     fsync'd, CRC-checked journal before it counts. A campaign killed at
//     any instant — including SIGKILL mid-record — resumes from the
//     journal and re-runs only uncommitted cells.
//   - Determinism. The grid expands from the manifest in a fixed order,
//     every cell is identified by a content hash of its full configuration
//     and seed, and the merged results artifact is assembled in grid order
//     from the journal. Any worker count, any crash/resume point, same
//     merged bytes.
//   - Fault isolation. A cell that panics (a model bug, a tripped
//     simulated-time budget) is recovered into a typed *CellError, retried
//     with exponential backoff up to a budget, then journaled as failed —
//     the campaign degrades gracefully instead of aborting, mirroring the
//     fail-stop quarantine discipline the bus protocol applies per
//     channel.
//
// See EXPERIMENTS.md "Running campaigns" for the operator view.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"obfusmem/internal/sim"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
	"obfusmem/internal/xrand"
)

// Manifest declares a campaign: the axes of the grid and the per-cell
// execution parameters. The JSON form is the canonical definition — the
// manifest hash recorded in the journal is computed over the expanded
// cells, so reordering axes in the file reorders the grid (and therefore
// the merged artifact) but editing whitespace or comments does not.
type Manifest struct {
	// Name labels the campaign in the journal, status endpoint, and
	// summary output.
	Name string `json:"name"`
	// Requests per cell (memory requests driven through the machine).
	Requests int `json:"requests"`
	// Schemes are registered backend names (see system.BackendNames).
	Schemes []string `json:"schemes"`
	// Workloads are SPEC profile names (see workload.ByName).
	Workloads []string `json:"workloads"`
	// FaultRates are per-packet transient-fault probabilities; 0 disables
	// the injector for that cell. Optional: defaults to [0].
	FaultRates []float64 `json:"faultRates,omitempty"`
	// Seeds are the independent replication seeds. Optional: defaults
	// to [1].
	Seeds []uint64 `json:"seeds,omitempty"`
	// Channels is the bus/memory channel count of every cell's machine.
	// Optional: defaults to 2, the operating point of -exp backends.
	Channels int `json:"channels,omitempty"`
	// DeadlineNSPerRequest bounds each cell's simulated clock at
	// requests × this many nanoseconds (see cpu.Config.SimBudget); a cell
	// whose simulated time diverges past the budget is recorded as failed
	// instead of hanging its worker. Optional: defaults to 1e6 ns per
	// request, generous by ~4 orders of magnitude for every calibrated
	// workload. Set negative to disable.
	DeadlineNSPerRequest float64 `json:"deadlineNSPerRequest,omitempty"`
	// MaxAttempts is the per-cell retry budget: a panicking cell is
	// retried up to MaxAttempts total executions before being journaled
	// as failed. Optional: defaults to 3.
	MaxAttempts int `json:"maxAttempts,omitempty"`
}

// Defaulted returns a copy with every optional field resolved, so cell
// hashes are computed over fully explicit configurations (a manifest that
// spells out the defaults hashes identically to one that omits them).
func (m Manifest) Defaulted() Manifest {
	if len(m.FaultRates) == 0 {
		m.FaultRates = []float64{0}
	}
	if len(m.Seeds) == 0 {
		m.Seeds = []uint64{1}
	}
	if m.Channels == 0 {
		m.Channels = 2
	}
	if m.DeadlineNSPerRequest == 0 {
		m.DeadlineNSPerRequest = 1e6
	}
	if m.DeadlineNSPerRequest < 0 {
		m.DeadlineNSPerRequest = 0
	}
	if m.MaxAttempts == 0 {
		m.MaxAttempts = 3
	}
	return m
}

// Validate rejects manifests that could not execute: unknown schemes or
// workloads, non-positive request counts, empty axes, or a deadline too
// large to represent. Called before any journal state is created so a bad
// manifest fails fast.
func (m Manifest) Validate() error {
	if m.Requests <= 0 {
		return fmt.Errorf("campaign manifest: requests must be positive, got %d", m.Requests)
	}
	if len(m.Schemes) == 0 {
		return fmt.Errorf("campaign manifest: no schemes")
	}
	if len(m.Workloads) == 0 {
		return fmt.Errorf("campaign manifest: no workloads")
	}
	for _, s := range m.Schemes {
		if _, err := system.DefaultConfigByName(s); err != nil {
			return fmt.Errorf("campaign manifest: %w", err)
		}
	}
	for _, w := range m.Workloads {
		if _, err := workload.ByName(w); err != nil {
			return fmt.Errorf("campaign manifest: %w", err)
		}
	}
	for _, r := range m.FaultRates {
		if r < 0 || r >= 1 {
			return fmt.Errorf("campaign manifest: fault rate %g outside [0,1)", r)
		}
	}
	// The per-cell deadline is requests × this; an overflow to +Inf would
	// make the cell identity unhashable (JSON has no infinity).
	if math.IsInf(m.DeadlineNSPerRequest*float64(m.Requests), 0) {
		return fmt.Errorf("campaign manifest: deadlineNSPerRequest %g × %d requests overflows", m.DeadlineNSPerRequest, m.Requests)
	}
	return nil
}

// LoadManifest reads and validates a manifest file. Unknown fields are
// rejected: a typo'd axis silently shrinking a grid to its defaults is
// exactly the kind of quiet data loss this package exists to prevent.
func LoadManifest(path string) (Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("campaign manifest: %w", err)
	}
	return ParseManifest(raw)
}

// ParseManifest decodes and validates manifest JSON.
func ParseManifest(raw []byte) (Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("campaign manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Cell is one grid point: a fully-specified, independently-executable
// simulation. Identity is the Key — a content hash over every field that
// influences the result — so identical cells (duplicate seeds, overlapping
// manifests) deduplicate and a journal entry unambiguously names the
// configuration it resulted from.
type Cell struct {
	Index    int     `json:"index"` // position in grid order
	Scheme   string  `json:"scheme"`
	Workload string  `json:"workload"`
	Fault    float64 `json:"faultRate"`
	Seed     uint64  `json:"seed"`
	Requests int     `json:"requests"`
	Channels int     `json:"channels"`
	// DeadlineNS is the cell's simulated-time budget in nanoseconds
	// (0 = unbounded).
	DeadlineNS float64 `json:"deadlineNS"`
	Key        string  `json:"key"`
}

// cellIdentity is the canonical serialization the Key hashes: a versioned,
// fixed-field-order struct so the hash is stable across Go releases and
// refactors that touch Cell itself. Index deliberately excluded — identity
// is the work, not the grid position.
type cellIdentity struct {
	V          int     `json:"v"`
	Scheme     string  `json:"scheme"`
	Workload   string  `json:"workload"`
	Fault      float64 `json:"faultRate"`
	Seed       uint64  `json:"seed"`
	Requests   int     `json:"requests"`
	Channels   int     `json:"channels"`
	DeadlineNS float64 `json:"deadlineNS"`
}

// keyOf computes the content-hash identity of a cell configuration.
func keyOf(c Cell) string {
	raw, err := json.Marshal(cellIdentity{
		V: 1, Scheme: c.Scheme, Workload: c.Workload, Fault: c.Fault,
		Seed: c.Seed, Requests: c.Requests, Channels: c.Channels,
		DeadlineNS: c.DeadlineNS,
	})
	if err != nil {
		panic("campaign: cell identity not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16]) // 128 bits: ample for dedup + replay identity
}

// Cells expands the manifest into its grid in canonical order: scheme
// outermost, then workload, fault rate, seed — the same nesting the
// manifest declares. The expansion is pure: same manifest, same slice.
func (m Manifest) Cells() []Cell {
	d := m.Defaulted()
	cells := make([]Cell, 0, len(d.Schemes)*len(d.Workloads)*len(d.FaultRates)*len(d.Seeds))
	for _, sc := range d.Schemes {
		for _, wl := range d.Workloads {
			for _, fr := range d.FaultRates {
				for _, seed := range d.Seeds {
					c := Cell{
						Index:      len(cells),
						Scheme:     sc,
						Workload:   wl,
						Fault:      fr,
						Seed:       seed,
						Requests:   d.Requests,
						Channels:   d.Channels,
						DeadlineNS: d.DeadlineNSPerRequest * float64(d.Requests),
					}
					c.Key = keyOf(c)
					cells = append(cells, c)
				}
			}
		}
	}
	return cells
}

// Hash is the campaign's identity: a hash over the expanded cell keys in
// grid order. The journal records it so a resume against an edited
// manifest is rejected instead of silently merging incompatible grids.
func (m Manifest) Hash() string {
	h := sha256.New()
	for _, c := range m.Cells() {
		h.Write([]byte(c.Key))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// UniqueKeys returns the deduplicated cell keys in first-appearance order,
// plus the index of the first cell bearing each key. Duplicate grid points
// (identical content hash) execute once and share the journal entry.
func UniqueKeys(cells []Cell) (order []string, firstCell map[string]Cell) {
	firstCell = make(map[string]Cell, len(cells))
	for _, c := range cells {
		if _, seen := firstCell[c.Key]; !seen {
			firstCell[c.Key] = c
			order = append(order, c.Key)
		}
	}
	return order, firstCell
}

// machineSeed derives the per-cell machine seed from the cell's replication
// seed and workload, mirroring the experiment suites' discipline: the
// workload (not the scheme) perturbs the stream so paired scheme
// comparisons on the same (workload, seed) run identical traces.
func machineSeed(c Cell) uint64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for i := 0; i < len(c.Workload); i++ {
		h = (h ^ uint64(c.Workload[i])) * fnvPrime64
	}
	return c.Seed ^ xrand.Mix64(h)
}

// budgetOf converts the cell's nanosecond deadline to a sim budget.
func budgetOf(c Cell) sim.Time {
	if c.DeadlineNS <= 0 {
		return 0
	}
	t, err := sim.TryNanos(c.DeadlineNS)
	if err != nil {
		// An out-of-range deadline means "effectively unbounded".
		return 0
	}
	return t
}
