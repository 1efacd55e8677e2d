package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"obfusmem/internal/cpu"
	"obfusmem/internal/metrics"
	"obfusmem/internal/names"
	"obfusmem/internal/sim"
	"obfusmem/internal/trace"
)

// Artifact file names inside the campaign directory.
const (
	JournalFile = "journal.obfj"
	ResultsFile = "results.json"
)

// ErrInterrupted is returned by Run after a clean SIGINT-style shutdown:
// in-flight cells drained and committed, shutdown record written, merged
// artifact deliberately not produced (the campaign is incomplete; resume
// to finish it).
var ErrInterrupted = errors.New("campaign interrupted: in-flight cells drained and committed; resume to finish")

// Options configures a Runner.
type Options struct {
	// Dir is the campaign directory: journal and merged results live
	// here. Created if absent.
	Dir string
	// Workers bounds the cell worker pool; <=0 means 1. The merged
	// artifact is identical for any value.
	Workers int
	// Metrics, when non-nil, receives campaign.* counters plus the
	// per-component metrics of every simulated machine.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives one campaign-cell span per committed
	// cell on the campaign's virtual timeline (cumulative simulated
	// time, in commit order). Owned by the coordinator only.
	Trace *trace.Recorder
	// Log receives human-readable progress lines; nil discards.
	Log io.Writer
	// BackoffBase is the first retry delay; attempt k waits
	// BackoffBase << (k-1), capped at BackoffMax. Zero BackoffBase
	// disables waiting (tests). Defaults: 50ms base, 2s cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// runCellFn is the test seam for injecting failing cells; nil means
	// the real executor.
	runCellFn func(Cell, *metrics.Registry) (CellResult, error)
}

// Progress is a point-in-time snapshot of campaign state, served by the
// status endpoint and summarised at exit.
type Progress struct {
	Name         string `json:"name"`
	ManifestHash string `json:"manifestHash"`
	CellsTotal   int    `json:"cellsTotal"`   // grid size
	CellsUnique  int    `json:"cellsUnique"`  // after dedup
	Resumed      int    `json:"resumed"`      // committed before this run
	Committed    int    `json:"committed"`    // committed so far, total
	Done         int    `json:"done"`         // committed with status done
	Failed       int    `json:"failed"`       // committed with status failed
	InFlight     int    `json:"inFlight"`     // dispatched, not yet committed
	Retries      int    `json:"retries"`      // re-executions after panics
	Deadlines    int    `json:"deadlines"`    // cells that tripped the sim budget
	JournalBytes int64  `json:"journalBytes"` //
	Complete     bool   `json:"complete"`     // all unique cells committed
	Interrupted  bool   `json:"interrupted"`  // this run stopped on interrupt
}

// Summary is Run's report.
type Summary struct {
	Progress
	ResultsPath string `json:"resultsPath,omitempty"` // merged artifact (complete runs only)
	JournalPath string `json:"journalPath"`
}

// Runner executes one campaign against one directory.
type Runner struct {
	man      Manifest
	manHash  string
	cells    []Cell
	order    []string        // unique keys, first-appearance order
	first    map[string]Cell // key -> representative cell
	opts     Options
	maxTries int

	mu       sync.Mutex
	journal  *Journal
	outcomes map[string]Record // committed cell outcomes by key
	prog     Progress
	traceNow sim.Time // campaign virtual timeline head
	// Track and span-name IDs of opts.Trace.
	traceTrack           trace.TrackID
	traceCell, traceFail trace.NameID

	srv *statusServer
}

// NewRunner validates the manifest, opens (or creates) the campaign
// directory and journal, and digests any prior state. It refuses journals
// whose manifest hash differs and journals with corrupt records.
func NewRunner(m Manifest, opts Options) (*Runner, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	d := m.Defaulted()
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.BackoffBase == 0 {
		opts.BackoffBase = 50 * time.Millisecond
	}
	if opts.BackoffBase < 0 {
		opts.BackoffBase = 0
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 2 * time.Second
	}
	if opts.runCellFn == nil {
		opts.runCellFn = runCell
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("campaign: no output directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	cells := d.Cells()
	order, first := UniqueKeys(cells)
	r := &Runner{
		man:      d,
		manHash:  d.Hash(),
		cells:    cells,
		order:    order,
		first:    first,
		opts:     opts,
		maxTries: d.MaxAttempts,
		outcomes: make(map[string]Record, len(order)),
	}
	if tr := opts.Trace; tr != nil {
		r.traceTrack = tr.Track("campaign")
		r.traceCell = tr.Name(names.SpanCampaignCell)
		r.traceFail = tr.Name(names.SpanCampaignCellFailed)
	}
	r.prog = Progress{
		Name:         d.Name,
		ManifestHash: r.manHash,
		CellsTotal:   len(cells),
		CellsUnique:  len(order),
	}

	j, err := OpenJournal(filepath.Join(opts.Dir, JournalFile))
	if err != nil {
		return nil, err
	}
	st, err := digest(j.Records(), j.Path(), r.manHash)
	if err != nil {
		j.Close()
		return nil, err
	}
	r.journal = j
	for _, k := range r.order {
		if rec, ok := st.byKey[k]; ok {
			r.outcomes[k] = rec
			r.account(rec, true)
		}
	}
	if len(r.outcomes) != len(st.byKey) {
		var foreign []string
		for k := range st.byKey {
			if _, known := first[k]; !known {
				foreign = append(foreign, k)
			}
		}
		sort.Strings(foreign)
		j.Close()
		return nil, fmt.Errorf("campaign journal %s: committed cell %s is not in this manifest's grid despite a matching manifest hash", j.Path(), foreign[0])
	}
	r.prog.Resumed = len(r.outcomes)
	r.prog.JournalBytes = j.Bytes()
	if j.DroppedTail() {
		r.logf("journal: dropped torn tail record (crash during a previous append); resuming from last durable state")
	}
	return r, nil
}

// account folds one committed outcome into the progress counters (callers
// hold mu or run before concurrency starts).
func (r *Runner) account(rec Record, resumed bool) {
	r.prog.Committed++
	switch rec.Status {
	case statusDone:
		r.prog.Done++
	case statusFailed:
		r.prog.Failed++
	}
	if !resumed {
		m := r.campaignMetrics()
		if rec.Status == statusDone {
			m.Counter(names.CampCellsDone).Inc()
		} else {
			m.Counter(names.CampCellsFailed).Inc()
		}
	}
}

// campaignMetrics returns the campaign.* metric scope (nil-safe).
func (r *Runner) campaignMetrics() *metrics.Registry {
	return r.opts.Metrics.Scope(names.ScopeCampaign)
}

func (r *Runner) logf(format string, args ...any) {
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, "[campaign] "+format+"\n", args...)
	}
}

// Progress returns a snapshot of the current state.
func (r *Runner) Progress() Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.prog
	p.Complete = p.Committed >= p.CellsUnique
	return p
}

// pending returns the unique keys not yet committed, in canonical order.
func (r *Runner) pending() []string {
	var out []string
	for _, k := range r.order {
		if _, ok := r.outcomes[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}

// execCell is the fault-isolation boundary: it runs the (possibly
// injected) cell executor and converts any panic into a typed *CellError,
// so the worker goroutine survives whatever the simulation does.
func (r *Runner) execCell(c Cell) (res CellResult, err error) {
	defer func() {
		if v := recover(); v != nil {
			ce := &CellError{Key: c.Key, Value: fmt.Sprintf("%v", v), Stack: debug.Stack()}
			if _, ok := v.(*cpu.BudgetError); ok {
				ce.Budget = true
			}
			err = ce
		}
	}()
	return r.opts.runCellFn(c, r.opts.Metrics)
}

// outcomeOf executes one cell with the retry/backoff discipline and
// returns the record to commit. Runs on a worker goroutine; must not
// touch runner state.
func (r *Runner) outcomeOf(ctx context.Context, c Cell) Record {
	m := r.campaignMetrics()
	for attempt := 1; ; attempt++ {
		res, err := r.execCell(c)
		if err == nil {
			return Record{Type: "cell", Key: c.Key, Status: statusDone, Attempts: attempt, Result: &res}
		}
		m.Counter(names.CampPanics).Inc()
		failure := err.Error()
		var ce *CellError
		if errors.As(err, &ce) {
			ce.Attempt = attempt
			failure = ce.Failure()
			if ce.Budget {
				m.Counter(names.CampDeadlines).Inc()
			}
			if len(ce.Stack) > 0 {
				r.logf("cell %s (%s/%s) attempt %d panicked: %s\n%s", c.Key, c.Scheme, c.Workload, attempt, ce.Value, ce.Stack)
			} else {
				r.logf("cell %s (%s/%s) attempt %d panicked: %s", c.Key, c.Scheme, c.Workload, attempt, ce.Value)
			}
		} else {
			r.logf("cell %s (%s/%s) attempt %d failed: %v", c.Key, c.Scheme, c.Workload, attempt, err)
		}
		if attempt >= r.maxTries || ctx.Err() != nil {
			return Record{Type: "cell", Key: c.Key, Status: statusFailed, Attempts: attempt, Error: failure}
		}
		m.Counter(names.CampRetries).Inc()
		if d := r.backoff(attempt); d > 0 {
			select {
			case <-ctx.Done():
				// Don't burn the remaining attempts during a drain; mark
				// failed with what we know. The journal records the
				// attempts actually made.
				return Record{Type: "cell", Key: c.Key, Status: statusFailed, Attempts: attempt, Error: failure}
			case <-time.After(d):
			}
		}
	}
}

// backoff returns the exponential delay after a failed attempt.
func (r *Runner) backoff(attempt int) time.Duration {
	if r.opts.BackoffBase <= 0 {
		return 0
	}
	d := r.opts.BackoffBase << (attempt - 1)
	if d > r.opts.BackoffMax || d <= 0 {
		d = r.opts.BackoffMax
	}
	return d
}

// commit journals one outcome and updates shared state. Coordinator only.
func (r *Runner) commit(rec Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.journal.Append(rec); err != nil {
		return err
	}
	r.outcomes[rec.Key] = rec
	r.account(rec, false)
	r.prog.InFlight--
	r.prog.JournalBytes = r.journal.Bytes()
	m := r.campaignMetrics()
	m.Counter(names.CampJournalRecords).Inc()
	m.Gauge(names.CampJournalBytes).Set(float64(r.journal.Bytes()))

	if r.opts.Trace != nil {
		c := r.first[rec.Key]
		var span sim.Time
		if rec.Result != nil {
			span = sim.Time(rec.Result.ExecPS)
		}
		name := r.traceCell
		if rec.Status == statusFailed {
			name = r.traceFail
		}
		tr := r.opts.Trace
		tr.Span(trace.PIDCPU, r.traceTrack, trace.CatOther, name,
			r.traceNow, r.traceNow+span,
			trace.Label(trace.KeyKey, tr.Label(rec.Key)), trace.Label(trace.KeyScheme, tr.Label(c.Scheme)),
			trace.Label(trace.KeyWorkload, tr.Label(c.Workload)), trace.Int(trace.KeyAttempts, int64(rec.Attempts)))
		r.traceNow += span
	}
	return nil
}

// Run executes the campaign to completion (or until ctx is cancelled),
// committing each cell to the journal as it finishes. On completion it
// writes the merged artifact and appends a clean shutdown record; on
// cancellation it drains in-flight cells, commits them, appends a clean
// shutdown record, and returns ErrInterrupted.
func (r *Runner) Run(ctx context.Context) (Summary, error) {
	defer r.journal.Close()
	m := r.campaignMetrics()
	m.Gauge(names.CampCellsTotal).Set(float64(len(r.cells)))
	m.Gauge(names.CampCellsUnique).Set(float64(len(r.order)))
	m.Counter(names.CampCellsResumed).Add(uint64(r.prog.Resumed))
	m.Counter(names.CampDedupHits).Add(uint64(len(r.cells) - len(r.order)))

	begin := Record{
		Type: "begin", Name: r.man.Name, ManifestHash: r.manHash,
		Cells: len(r.cells), Unique: len(r.order),
	}
	if err := r.journal.Append(begin); err != nil {
		return r.summary(false), err
	}

	pending := r.pending()
	r.logf("%s: %d grid cells, %d unique, %d already committed, %d to run (workers=%d)",
		r.man.Name, len(r.cells), len(r.order), r.prog.Resumed, len(pending), r.opts.Workers)

	if len(pending) > 0 {
		if err := r.runPending(ctx, pending); err != nil {
			return r.summary(false), err
		}
	}

	interrupted := ctx.Err() != nil && r.Progress().Committed < len(r.order)
	reason := "complete"
	if interrupted {
		reason = "interrupt"
		r.mu.Lock()
		r.prog.Interrupted = true
		r.mu.Unlock()
	}
	shutdown := Record{Type: "shutdown", Reason: reason, Committed: r.Progress().Committed}
	if err := r.journal.Append(shutdown); err != nil {
		return r.summary(false), err
	}
	if interrupted {
		r.logf("interrupted: %d/%d unique cells committed; resume with the same -campaign/-campaign-out to finish",
			r.Progress().Committed, len(r.order))
		return r.summary(false), ErrInterrupted
	}

	path, err := r.writeResults()
	if err != nil {
		return r.summary(true), err
	}
	s := r.summary(true)
	s.ResultsPath = path
	r.logf("complete: %d done, %d failed; merged results at %s", s.Done, s.Failed, path)
	return s, nil
}

// runPending fans the uncommitted cells out over the worker pool and
// commits outcomes as they stream back. Dispatch stops on ctx
// cancellation; in-flight cells always drain and commit.
func (r *Runner) runPending(ctx context.Context, keys []string) error {
	work := make(chan Cell)
	results := make(chan Record)
	var wg sync.WaitGroup
	wg.Add(r.opts.Workers)
	for w := 0; w < r.opts.Workers; w++ {
		//lint:allow determinism campaign worker goroutines run independent cells into per-key journal commits; merged output is assembled in grid order
		go func() {
			defer wg.Done()
			for c := range work {
				results <- r.outcomeOf(ctx, c)
			}
		}()
	}
	//lint:allow determinism feeder goroutine only sequences dispatch; cancellation stops dispatch, never uncommits state
	go func() {
		defer close(work)
		for _, k := range keys {
			c := r.first[k]
			r.mu.Lock()
			r.prog.InFlight++
			r.mu.Unlock()
			select {
			case <-ctx.Done():
				r.mu.Lock()
				r.prog.InFlight--
				r.mu.Unlock()
				return
			case work <- c:
			}
		}
	}()
	//lint:allow determinism closer goroutine turns pool drain into channel close for the commit loop below
	go func() {
		wg.Wait()
		close(results)
	}()

	for rec := range results {
		if err := r.commit(rec); err != nil {
			// A journal write failure is fatal: without durability the
			// campaign's contract is void. Drain workers before leaving.
			//lint:allow determinism drain goroutine discards in-flight results after a fatal journal error
			go func() {
				for range results {
				}
			}()
			return err
		}
	}
	return nil
}

func (r *Runner) summary(complete bool) Summary {
	p := r.Progress()
	s := Summary{Progress: p, JournalPath: filepath.Join(r.opts.Dir, JournalFile)}
	if complete {
		s.ResultsPath = filepath.Join(r.opts.Dir, ResultsFile)
	}
	return s
}

// MergedCell is one grid position in the merged artifact.
type MergedCell struct {
	Cell
	Status   string      `json:"status"`
	Attempts int         `json:"attempts"`
	Result   *CellResult `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
}

// Merged is the campaign's final artifact: every grid cell in canonical
// order with its journaled outcome. Built purely from (manifest, journal),
// so an interrupted-and-resumed campaign merges to the same bytes as an
// uninterrupted one.
type Merged struct {
	Name         string       `json:"name"`
	ManifestHash string       `json:"manifestHash"`
	Requests     int          `json:"requests"`
	CellsTotal   int          `json:"cellsTotal"`
	CellsUnique  int          `json:"cellsUnique"`
	Done         int          `json:"done"`
	Failed       int          `json:"failed"`
	Cells        []MergedCell `json:"cells"`
}

// merged assembles the artifact from committed outcomes. Every unique key
// must be committed (call only when complete).
func (r *Runner) merged() (Merged, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Merged{
		Name:         r.man.Name,
		ManifestHash: r.manHash,
		Requests:     r.man.Requests,
		CellsTotal:   len(r.cells),
		CellsUnique:  len(r.order),
	}
	for _, c := range r.cells {
		rec, ok := r.outcomes[c.Key]
		if !ok {
			return Merged{}, fmt.Errorf("campaign: cell %s has no committed outcome; merge requires a complete journal", c.Key)
		}
		out.Cells = append(out.Cells, MergedCell{
			Cell: c, Status: rec.Status, Attempts: rec.Attempts,
			Result: rec.Result, Error: rec.Error,
		})
	}
	for _, k := range r.order {
		if r.outcomes[k].Status == statusDone {
			out.Done++
		} else {
			out.Failed++
		}
	}
	return out, nil
}

// writeResults renders the merged artifact atomically (temp file + rename)
// so a crash during the final write can never leave a half-merged
// results file posing as complete.
func (r *Runner) writeResults() (string, error) {
	merged, err := r.merged()
	if err != nil {
		return "", err
	}
	raw, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return "", fmt.Errorf("campaign: encode results: %w", err)
	}
	raw = append(raw, '\n')
	path := filepath.Join(r.opts.Dir, ResultsFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o666); err != nil {
		return "", fmt.Errorf("campaign: write results: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("campaign: publish results: %w", err)
	}
	return path, nil
}
