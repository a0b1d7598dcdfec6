package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jetty/internal/lru"
)

// TaskTrace is one submission's telemetry record, delivered to
// Options.OnRetire. For executed tasks it carries the lifecycle timing
// breakdown; cache hits and coalesced submissions report their
// disposition with zero durations (they did no queueing or running of
// their own).
type TaskTrace struct {
	Kind        string // Task.Kind ("" when the submitter set none)
	Key         string // content address
	Origin      string // Task.Origin of the execution's first submitter
	Tenant      string // Task.Tenant of the execution's first submitter
	Disposition string // DispositionExecuted | DispositionCacheHit | DispositionCoalesced
	State       State  // terminal state (Done/Failed/Canceled); Queued for coalesced notifications
	QueueWait   time.Duration
	Run         time.Duration
	Err         error // non-nil iff State is Failed or Canceled
}

// Options configures an Engine.
type Options struct {
	// Workers is the pool size. 0 means runtime.GOMAXPROCS(0) — one
	// worker per schedulable CPU.
	Workers int
	// CacheEntries bounds the result cache. 0 means the default (256);
	// negative disables caching entirely.
	CacheEntries int
	// OnRetire, when non-nil, observes every submission's outcome: once
	// per executed task as its worker retires it (with the timing
	// breakdown), and once per cache-hit or coalesced submission at
	// submit time. Called outside engine locks, possibly from several
	// goroutines at once; it must be cheap and must not call back into
	// the engine. jettyd wires this to its latency histograms and
	// slow-job log.
	OnRetire func(TaskTrace)
	// TenantWeights sets per-tenant fair-share weights: how many queued
	// tasks a tenant may drain per deficit-round-robin ring visit.
	// Missing (or <2) entries weigh 1. nil means every tenant weighs 1 —
	// pure per-task round-robin across tenants.
	TenantWeights map[string]int
	// Store, when non-nil, is the persistent result tier (L3) under the
	// in-memory cache: consulted on submissions that miss both the cache
	// and the in-flight map, written through on every successful
	// execution. See ResultStore.
	Store ResultStore
}

// DefaultCacheEntries is the result-cache capacity when Options leaves
// CacheEntries zero.
const DefaultCacheEntries = 256

// Stats is a snapshot of the engine's lifetime counters plus the
// instantaneous saturation gauges a scheduler or scrape wants.
type Stats struct {
	Submitted uint64 // member submissions (one per Submit, one per GroupTask member)
	Executed  uint64 // tasks actually run by a worker
	CacheHits uint64 // submissions served from the finished-result cache
	Coalesced uint64 // submissions attached to an identical in-flight run
	StoreHits uint64 // submissions served from the persistent result store
	Canceled  uint64 // executions that ended canceled
	Failed    uint64 // executions that ended in error

	FusedGroups uint64 // multi-member group tasks queued as a single fused run

	QueueDepth int // executions queued, not yet picked up by a worker
	Inflight   int // executions currently running on a worker

	// CacheEntries is the number of results currently resident in the
	// finished-result cache (0 when caching is disabled). A cluster
	// coordinator reads it off a worker's /healthz to tell a warm L1
	// from a cold restart.
	CacheEntries int

	// TenantQueues is the per-tenant queued-execution depth (fair-share
	// FIFO lengths); nil when the queue is empty. A fused group counts as
	// one queued execution under its submitting tenant.
	TenantQueues map[string]int
}

// Engine runs tasks on a fixed worker pool.
type Engine struct {
	workers  int
	onRetire func(TaskTrace) // nil when unobserved
	store    ResultStore     // nil when the persistent tier is absent

	mu       sync.Mutex
	inflight map[string]*execution // queued or running, by key
	// cache is the L1 of finished results, stored as-is: consumers treat
	// them as immutable (the sim layer clones before handing one out).
	// Its capacity is ≤ 0, so it stores nothing, when caching is disabled.
	cache  *lru.LRU[any]
	stats  Stats
	closed bool

	queue   *queue
	running atomic.Int64 // executions currently inside a worker's Run
	wg      sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New starts an engine. Close it when done to release the workers.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	cacheEntries := opts.CacheEntries
	if cacheEntries == 0 {
		cacheEntries = DefaultCacheEntries
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		workers:    w,
		onRetire:   opts.OnRetire,
		store:      opts.Store,
		inflight:   make(map[string]*execution),
		cache:      lru.New[any](cacheEntries),
		queue:      newQueue(opts.TenantWeights),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	e.wg.Add(w)
	for i := 0; i < w; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Submit schedules a task and returns a handle observing it: the task
// is admitted and run as a group of one (see SubmitGroup), so it is
// served from the cache, coalesced onto an identical in-flight
// execution, or queued, exactly like a group member.
func (e *Engine) Submit(t Task) *Job {
	return e.SubmitGroup(GroupTask{
		Kind: t.Kind, Origin: t.Origin, Tenant: t.Tenant,
		Members: []GroupMember{{Key: t.Key, Total: t.Total}},
		Run: func(ctx context.Context, _ []int, report func(uint64)) ([]any, error) {
			res, err := t.Run(ctx, report)
			return []any{res}, err
		},
	})[0]
}

// retire delivers one telemetry record to the OnRetire hook, if any.
// Never called with engine locks held.
func (e *Engine) retire(t TaskTrace) {
	if e.onRetire != nil {
		e.onRetire(t)
	}
}

// Stats returns a snapshot of the lifetime counters and the queue-depth
// and in-flight gauges.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := e.stats
	st.CacheEntries = e.cache.Len()
	e.mu.Unlock()
	st.QueueDepth = e.queue.len()
	st.Inflight = int(e.running.Load())
	st.TenantQueues = e.queue.depths()
	return st
}

// Close cancels every queued and running execution, waits for the
// workers to drain, and rejects all later submissions with ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()

	e.baseCancel() // cancels every execution context derived from it
	e.queue.close()
	e.wg.Wait()

	// Workers drained the queue (canceled executions finish without
	// running), so nothing is left in flight.
	e.mu.Lock()
	for key, ex := range e.inflight {
		delete(e.inflight, key)
		ex.finish(nil, context.Canceled)
	}
	e.mu.Unlock()
}

// worker is one pool goroutine: pop, run, repeat. After close the queue
// keeps handing out remaining items (their contexts are canceled, so
// they finish immediately) and reports done when empty.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		ex, ok := e.queue.pop()
		if !ok {
			return
		}
		e.runGroup(ex.run)
	}
}
