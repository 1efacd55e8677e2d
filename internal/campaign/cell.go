package campaign

import (
	"fmt"

	"obfusmem/internal/cpu"
	"obfusmem/internal/metrics"
	"obfusmem/internal/system"
	"obfusmem/internal/workload"
)

// Cell outcome statuses as recorded in the journal.
const (
	statusDone   = "done"
	statusFailed = "failed"
)

// CellResult is the journaled outcome of one completed cell: the
// execution-model summary plus the backend's request-conservation ledger.
// Every field is a pure function of the cell configuration (the simulator
// is deterministic), which is what makes journal replay and crash/resume
// merging bit-exact. No wall-clock quantity may ever be added here.
type CellResult struct {
	Scheme    string  `json:"scheme"`
	Workload  string  `json:"workload"`
	FaultRate float64 `json:"faultRate"`
	Seed      uint64  `json:"seed"`

	ExecPS     int64   `json:"execPS"` // simulated execution time, picoseconds
	Reads      uint64  `json:"reads"`
	Writes     uint64  `json:"writes"`
	MeanReadNS float64 `json:"meanReadNS"`
	MaxReadNS  float64 `json:"maxReadNS"`
	IPC        float64 `json:"ipc"`
	MPKI       float64 `json:"mpki"`

	// Request-conservation ledger (Issued == Completed + Lost + Refused).
	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Lost      uint64 `json:"lost"`
	Refused   uint64 `json:"refused"`

	// Quarantine, when non-empty, is the backend's fail-stop error (e.g.
	// a channel quarantined after exhausting its recovery budget). The
	// cell still counts as done: fail-stop inside the simulated machine
	// is a modelled outcome, not an orchestration failure.
	Quarantine string `json:"quarantine,omitempty"`
}

// CellError is a cell execution failure recovered at the cell boundary: a
// panic out of the model (a bug, or a tripped simulated-time budget)
// converted into a typed error so the campaign can retry and degrade
// instead of dying. Failure() is the deterministic core that may enter the
// journal and the merged artifact; Stack is diagnostic only (goroutine ids
// and addresses make it run-dependent) and must never be journaled.
type CellError struct {
	Key     string
	Attempt int
	// Value is the formatted panic value.
	Value string
	// Budget marks a *cpu.BudgetError — the cell's simulated clock passed
	// its deadline (a runaway cell, detected rather than hung).
	Budget bool
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s attempt %d panicked: %s", e.Key, e.Attempt, e.Value)
}

// Failure is the deterministic failure description recorded in the
// journal: panic value only, no attempt counter (the record carries
// attempts separately) and no stack.
func (e *CellError) Failure() string { return e.Value }

// runCell executes one cell to completion. Panics out of the model (bugs,
// tripped simulated-time budgets) are NOT recovered here: the
// fault-isolation boundary is the runner's execCell wrapper, so injected
// test executors get exactly the same isolation as the real one.
func runCell(c Cell, reg *metrics.Registry) (CellResult, error) {
	cfg, cerr := system.DefaultConfigByName(c.Scheme)
	if cerr != nil {
		return CellResult{}, fmt.Errorf("cell %s: %w", c.Key, cerr)
	}
	cfg.Channels = c.Channels
	cfg.Seed = machineSeed(c)
	cfg.Metrics = reg
	if c.Fault > 0 {
		cfg.InjectFaults(c.Fault)
	}
	p, werr := workload.ByName(c.Workload)
	if werr != nil {
		return CellResult{}, fmt.Errorf("cell %s: %w", c.Key, werr)
	}

	ccfg := cpu.DefaultConfig()
	ccfg.SimBudget = budgetOf(c)
	sys := system.New(cfg)
	r := cpu.Run(p, c.Requests, sys, ccfg, c.Seed+7)

	acct := sys.Accounting()
	out := CellResult{
		Scheme:    c.Scheme,
		Workload:  c.Workload,
		FaultRate: c.Fault,
		Seed:      c.Seed,

		ExecPS:     int64(r.ExecTime),
		Reads:      r.Reads,
		Writes:     r.Writes,
		MeanReadNS: r.MeanReadNS,
		MaxReadNS:  r.MaxReadNS,
		IPC:        r.IPC,
		MPKI:       r.MPKI,

		Issued:    acct.Issued,
		Completed: acct.Completed,
		Lost:      acct.Lost,
		Refused:   acct.Refused,
	}
	if serr := sys.Err(); serr != nil {
		out.Quarantine = serr.Error()
	}
	return out, nil
}
