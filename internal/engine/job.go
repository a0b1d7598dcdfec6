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

// Task is one schedulable computation.
type Task struct {
	// Key is the task's content address. Two tasks with equal keys must
	// compute equal results: the engine deduplicates and caches by it.
	Key string

	// Kind labels the task for telemetry (per-kind latency histograms,
	// slow-job logs): "workload", "trace", "sweep", ... Not part of the
	// content address — two kinds submitting the same Key still share
	// one execution and one cache slot.
	Kind string

	// Origin is the request ID (or other correlation token) of the
	// submitter, carried into the job's Status and retire trace so
	// telemetry ties back to the request that caused the work. Not part
	// of the content address; a coalesced execution keeps its first
	// submitter's origin.
	Origin string

	// Tenant names the submitter for fair-share scheduling: the queue
	// keeps one FIFO per tenant and drains them by weighted deficit
	// round-robin, so no tenant's backlog can starve another's work.
	// Like Origin it is not part of the content address — identical
	// tasks from different tenants still share one execution and one
	// cache slot (the result is tenant-independent by the Key contract),
	// and a coalesced execution keeps its first submitter's tenant. The
	// empty string is the default tenant.
	Tenant string

	// Total is the task's progress denominator (e.g. references to
	// simulate). 0 means progress is not reported.
	Total uint64

	// Run performs the computation. It must honor ctx (return ctx.Err()
	// promptly once canceled) and may call report with the number of
	// progress units completed so far.
	Run func(ctx context.Context, report func(done uint64)) (any, error)
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
	CacheHit bool   // served from the finished-result cache

	// Disposition is how this handle's submission was satisfied:
	// DispositionExecuted, DispositionCacheHit, DispositionCoalesced or
	// DispositionStoreHit.
	Disposition string
	// Origin is the correlation token of the submission that created the
	// underlying execution (Task.Origin of the first submitter).
	Origin string
	// Tenant is the fair-share identity of the submission that created
	// the underlying execution (Task.Tenant of the first submitter).
	Tenant string
	// QueueWait is how long the execution sat queued before a worker
	// picked it up (live while queued, frozen once running). Zero for
	// cache hits.
	QueueWait time.Duration
	// Run is the execution's running time (live while running, frozen
	// once terminal). Zero for cache hits and never-run cancellations.
	Run time.Duration
}

// Fraction returns completed progress in 0..1 (1 when finished, 0 when
// the total is unknown and the job is still running).
func (s Status) Fraction() float64 {
	if s.State == Done {
		return 1
	}
	if s.Total == 0 {
		return 0
	}
	f := float64(s.Done) / float64(s.Total)
	if f > 1 {
		f = 1
	}
	return f
}

// execution is one member's underlying run, shared by every handle
// whose submission coalesced onto it.
type execution struct {
	task   Task
	ctx    context.Context
	cancel context.CancelFunc

	// run is the group run that owns this execution, nil for results
	// served without running. The run's first owned member is its queue
	// entry: the worker that pops it executes the whole run.
	run *groupRun

	state atomic.Int32
	done  atomic.Uint64
	total atomic.Uint64

	// Lifecycle timeline. submitted is written once before the execution
	// is published; startNS and finishNS are nanosecond offsets from
	// submitted (0 = not yet reached), written by the worker and read by
	// any number of Status snapshots.
	submitted time.Time
	startNS   atomic.Int64
	finishNS  atomic.Int64

	cacheHit bool
	// storeHit refines cacheHit: the result came from the persistent
	// store rather than the in-memory cache. Store hits behave like
	// cache hits everywhere (no queueing, no run, CacheHit=true in
	// Status) except in their disposition label.
	storeHit bool

	mu      sync.Mutex
	handles int  // live (not yet canceled) handles
	doomed  bool // last handle canceled; no further attachment allowed
	result  any
	err     error

	finished chan struct{}
}

func newExecution(t Task, ctx context.Context, cancel context.CancelFunc) *execution {
	ex := &execution{task: t, ctx: ctx, cancel: cancel, finished: make(chan struct{}), submitted: time.Now()}
	ex.total.Store(t.Total)
	return ex
}

// markStart records the queued→running transition (worker pickup).
func (ex *execution) markStart() { ex.startNS.Store(time.Since(ex.submitted).Nanoseconds()) }

// queueWait returns how long the execution sat queued: live while still
// queued, frozen at worker pickup (or at finish, for executions canceled
// before any worker saw them).
func (ex *execution) queueWait() time.Duration {
	if s := ex.startNS.Load(); s > 0 {
		return time.Duration(s)
	}
	if f := ex.finishNS.Load(); f > 0 {
		return time.Duration(f)
	}
	if ex.cacheHit {
		return 0
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
// Submit resolves atomically: either the new handle attaches first (and
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

// report is the progress sink passed to Task.Run.
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
		ex.done.Store(ex.total.Load())
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
		Key:         ex.task.Key,
		State:       State(ex.state.Load()),
		Done:        ex.done.Load(),
		Total:       ex.total.Load(),
		CacheHit:    ex.cacheHit,
		Disposition: j.Disposition(),
		Origin:      ex.task.Origin,
		Tenant:      ex.task.Tenant,
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
// served from the result cache, coalesced onto an in-flight execution,
// or executed (i.e. this submission created the execution).
func (j *Job) Disposition() string {
	switch {
	case j.exec.storeHit:
		return DispositionStoreHit
	case j.exec.cacheHit:
		return DispositionCacheHit
	case j.coalesced:
		return DispositionCoalesced
	default:
		return DispositionExecuted
	}
}
