package sim

// Resource models a unit that can serve one item at a time (a pipeline stage,
// a bus, a bank data path). Acquire returns the earliest time at or after
// `at` that the resource is free, and marks it busy for `hold` picoseconds
// starting then. It is the standard building block for occupancy modelling.
type Resource struct {
	name     string
	freeAt   Time
	busyTime Time // accumulated busy picoseconds
	uses     uint64
}

// NewResource returns an idle resource with a diagnostic name.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the diagnostic name.
func (r *Resource) Name() string { return r.name }

// Acquire reserves the resource for hold picoseconds at the earliest slot at
// or after `at`, returning the start time of the reservation.
func (r *Resource) Acquire(at Time, hold Time) Time {
	if hold < 0 {
		panic("sim: negative hold")
	}
	start := at
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + hold
	r.busyTime += hold
	r.uses++
	return start
}

// FreeAt returns the time the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// IdleAt reports whether the resource is idle at time t.
func (r *Resource) IdleAt(t Time) bool { return r.freeAt <= t }

// BusyTime returns total reserved picoseconds.
func (r *Resource) BusyTime() Time { return r.busyTime }

// Uses returns the number of Acquire calls.
func (r *Resource) Uses() uint64 { return r.uses }

// Utilization reports busy time as a fraction of the window [0, now].
func (r *Resource) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	u := float64(r.busyTime) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}

// Reset clears occupancy and counters.
func (r *Resource) Reset() {
	r.freeAt = 0
	r.busyTime = 0
	r.uses = 0
}

// Pipeline models a fully pipelined unit with a fixed latency and an
// initiation interval: a new operation can start every Interval picoseconds
// and completes Latency picoseconds after it starts. This matches the
// pipelined AES and MD5 engines used by ObfusMem.
type Pipeline struct {
	Latency  Time
	Interval Time
	issue    *Resource
}

// NewPipeline returns a pipeline with the given latency and initiation
// interval.
func NewPipeline(name string, latency, interval Time) *Pipeline {
	if latency < 0 || interval <= 0 {
		panic("sim: invalid pipeline parameters")
	}
	return &Pipeline{Latency: latency, Interval: interval, issue: NewResource(name)}
}

// Issue schedules one operation at or after `at`; it returns the completion
// time of that operation.
func (p *Pipeline) Issue(at Time) (done Time) {
	start := p.issue.Acquire(at, p.Interval)
	return start + p.Latency
}

// IssueN schedules n back-to-back operations and returns the completion time
// of the last one. It is n calls of Issue(at) in closed form: the first
// starts when the pipeline frees up, each next one an Interval later.
func (p *Pipeline) IssueN(at Time, n int) (done Time) {
	if n <= 0 {
		return at
	}
	r := p.issue
	start := max(at, r.freeAt)
	span := Time(n) * p.Interval
	r.freeAt = start + span
	r.busyTime += span
	r.uses += uint64(n)
	return start + span - p.Interval + p.Latency
}

// Ops returns the number of operations issued.
func (p *Pipeline) Ops() uint64 { return p.issue.Uses() }

// Reset clears pipeline occupancy.
func (p *Pipeline) Reset() { p.issue.Reset() }
