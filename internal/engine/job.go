package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by jobs submitted to a closed engine.
var ErrClosed = errors.New("engine: closed")

// task is what an execution records of the group member it runs: the
// member's content address and progress denominator, and the group's
// Kind, Origin and Tenant labels (see GroupTask).
type task struct {
	key, kind, origin, tenant string
	total                     uint64
}

// Dispositions: how a submission was satisfied.
const (
	DispositionExecuted  = "executed"  // ran (or will run) on a worker
	DispositionCacheHit  = "cache_hit" // served from the finished-result cache
	DispositionCoalesced = "coalesced" // attached to an identical in-flight run
	DispositionStoreHit  = "store_hit" // served from the persistent result store
)

// State is the lifecycle of an execution.
type State int32

const (
	Queued State = iota
	Running
	Done
	Failed
	Canceled
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	default:
		return "invalid"
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Status is a point-in-time snapshot of a job.
type Status struct {
	Key      string
	State    State
	Done     uint64 // progress units completed
	Total    uint64 // progress denominator (0 = unknown)
	Err      string // non-empty iff State == Failed or Canceled
	CacheHit bool   // served without running: from the result cache or the store

	// Disposition is how this handle's submission was satisfied:
	// DispositionExecuted, DispositionCacheHit, DispositionCoalesced or
	// DispositionStoreHit.
	Disposition string
	// Origin is the correlation token of the submission that created the
	// underlying execution (GroupTask.Origin of the first submitter).
	Origin string
	// Tenant is the fair-share identity of the submission that created
	// the underlying execution (GroupTask.Tenant of the first submitter).
	Tenant string
	// QueueWait is how long the execution sat queued before a worker
	// picked it up (live while queued, frozen once running). Zero for
	// cache and store hits.
	QueueWait time.Duration
	// Run is the execution's running time (live while running, frozen
	// once terminal). Zero for cache and store hits and never-run
	// cancellations.
	Run time.Duration
}

// execution is one member's underlying run, shared by every handle
// whose submission coalesced onto it.
type execution struct {
	task   task
	ctx    context.Context
	cancel context.CancelFunc

	// run is the group run that owns this execution, nil for results
	// served without running. The run's first owned member is its queue
	// entry: the worker that pops it executes the whole run.
	run *groupRun

	state atomic.Int32
	done  atomic.Uint64

	// Lifecycle timeline. submitted is written once before the execution
	// is published; startNS and finishNS are nanosecond offsets from
	// submitted (0 = not yet reached), written by the worker and read by
	// any number of Status snapshots.
	submitted time.Time
	startNS   atomic.Int64
	finishNS  atomic.Int64

	// hit is DispositionCacheHit or DispositionStoreHit for a result
	// served without running, empty otherwise. A hit did no queueing or
	// running of its own: it reports zero QueueWait and Run, and
	// CacheHit in Status.
	hit string

	mu      sync.Mutex
	handles int  // live (not yet canceled) handles
	doomed  bool // last handle canceled; no further attachment allowed
	result  any
	err     error

	finished chan struct{}
}

func newExecution(t task, ctx context.Context, cancel context.CancelFunc) *execution {
	return &execution{task: t, ctx: ctx, cancel: cancel, finished: make(chan struct{}), submitted: time.Now()}
}

// markStart records the queued→running transition (worker pickup).
func (ex *execution) markStart() { ex.startNS.Store(time.Since(ex.submitted).Nanoseconds()) }

// queueWait returns how long the execution sat queued: zero for a hit,
// live while still queued, frozen at worker pickup (or at finish, for
// executions canceled before any worker saw them).
func (ex *execution) queueWait() time.Duration {
	if ex.hit != "" {
		return 0
	}
	if s := ex.startNS.Load(); s > 0 {
		return time.Duration(s)
	}
	if f := ex.finishNS.Load(); f > 0 {
		return time.Duration(f)
	}
	return time.Since(ex.submitted)
}

// runTime returns the execution's running time: live while running,
// frozen once finished, zero before any worker picked it up.
func (ex *execution) runTime() time.Duration {
	s := ex.startNS.Load()
	if s == 0 {
		return 0
	}
	if f := ex.finishNS.Load(); f > 0 {
		return time.Duration(f - s)
	}
	return time.Since(ex.submitted) - time.Duration(s)
}

// attach registers one more observer of the execution, or returns nil
// if the execution is doomed (its last handle canceled it). The doomed
// decision and attachment share ex.mu, so a Cancel racing a coalescing
// submission resolves atomically: either the new handle attaches first (and
// the Cancel is no longer last), or the submitter sees doomed and must
// start a fresh execution. Never nil for a freshly created execution.
func (ex *execution) attach() *Job {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.doomed || ex.ctx.Err() != nil {
		return nil
	}
	ex.handles++
	return &Job{exec: ex}
}

// report is the member's progress sink: the group run's report mirrors
// onto every live member.
func (ex *execution) report(done uint64) { ex.done.Store(done) }

// finish resolves the execution exactly once.
func (ex *execution) finish(res any, err error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	select {
	case <-ex.finished:
		return // already finished
	default:
	}
	ex.result, ex.err = res, err
	ex.finishNS.Store(time.Since(ex.submitted).Nanoseconds())
	switch {
	case err == nil:
		ex.state.Store(int32(Done))
		ex.done.Store(ex.task.total)
	case ex.ctx.Err() != nil || errors.Is(err, context.Canceled):
		ex.state.Store(int32(Canceled))
	default:
		ex.state.Store(int32(Failed))
	}
	close(ex.finished)
}

// Job is one submitter's handle on an execution. Handles created by
// deduplicated submissions share the execution; canceling one handle
// only cancels the run once every handle has been canceled.
type Job struct {
	exec       *execution
	coalesced  bool // this handle attached to an already in-flight execution
	cancelOnce sync.Once
}

// Status returns a snapshot of the job.
func (j *Job) Status() Status {
	ex := j.exec
	st := Status{
		Key:         ex.task.key,
		State:       State(ex.state.Load()),
		Done:        ex.done.Load(),
		Total:       ex.task.total,
		CacheHit:    ex.hit != "",
		Disposition: j.Disposition(),
		Origin:      ex.task.origin,
		Tenant:      ex.task.tenant,
		QueueWait:   ex.queueWait(),
		Run:         ex.runTime(),
	}
	if st.State.Terminal() {
		ex.mu.Lock()
		if ex.err != nil {
			st.Err = ex.err.Error()
		}
		ex.mu.Unlock()
	}
	return st
}

// Wait blocks until the job finishes or ctx is done. A ctx expiry
// abandons the wait without canceling the job.
func (j *Job) Wait(ctx context.Context) (any, error) {
	select {
	case <-j.exec.finished:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.exec.mu.Lock()
	defer j.exec.mu.Unlock()
	return j.exec.result, j.exec.err
}

// Done returns a channel that closes once the job's execution is
// terminal (done, failed or canceled). Waiting on it cancels nothing.
func (j *Job) Done() <-chan struct{} { return j.exec.finished }

// Cancel withdraws this handle's interest. The underlying execution is
// canceled once all of its handles have been canceled (or the engine is
// closed). Cancel is idempotent and safe after completion.
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() {
		ex := j.exec
		ex.mu.Lock()
		ex.handles--
		last := ex.handles <= 0
		if last {
			ex.doomed = true // no new handle may attach past this point
		}
		ex.mu.Unlock()
		if last {
			ex.cancel()
		}
	})
}

// State returns the job's current lifecycle state without allocating a
// full Status snapshot (cheap enough for hot aggregation loops).
func (j *Job) State() State { return State(j.exec.state.Load()) }

// Disposition reports how this handle's submission was satisfied:
// served from the result cache or the store, coalesced onto an
// in-flight execution, or executed (i.e. this submission created the
// execution).
func (j *Job) Disposition() string {
	switch {
	case j.exec.hit != "":
		return j.exec.hit
	case j.coalesced:
		return DispositionCoalesced
	default:
		return DispositionExecuted
	}
}
