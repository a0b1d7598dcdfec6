package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"jetty/internal/engine"
	"jetty/internal/sim"
)

// Defaults for the zero Options fields.
const (
	DefaultProbeInterval        = 2 * time.Second
	DefaultRequestTimeout       = 5 * time.Minute
	DefaultMaxAttempts          = 8
	DefaultRetryBackoff         = 100 * time.Millisecond
	DefaultMaxInflightPerWorker = 4
)

// maxRetryBackoff caps the exponential retry backoff.
const maxRetryBackoff = 2 * time.Second

// Options configures a Coordinator.
type Options struct {
	// Workers are the remote jettyd workers to shard cells across.
	// Required, at least one.
	Workers []*Client
	// ProbeInterval is the health-probe period (0 = 2s). A worker whose
	// probe fails transport, reports draining, or goes unanswered for two
	// consecutive periods is marked dead: each unit in flight on it
	// starts a second attempt on a survivor at once, and it gets no new
	// work until a probe succeeds again.
	ProbeInterval time.Duration
	// RequestTimeout bounds one cell-unit dispatch (0 = 5m). A timed-out
	// dispatch counts as a transport failure.
	RequestTimeout time.Duration
	// MaxAttempts bounds dispatches per cell unit before the unit, and
	// so its sweep, fails (0 = 8).
	MaxAttempts int
	// RetryBackoff is the base delay before redispatching a unit after a
	// transient (5xx/429) worker reply; it doubles per attempt up to 2s
	// (0 = 100ms).
	RetryBackoff time.Duration
	// MaxInflightPerWorker bounds concurrently dispatched units per
	// worker (0 = 4).
	MaxInflightPerWorker int
	// Logger receives reschedule and worker-transition records (nil
	// discards).
	Logger *slog.Logger
}

// withDefaults fills the zero fields.
func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = DefaultRequestTimeout
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	if o.MaxInflightPerWorker <= 0 {
		o.MaxInflightPerWorker = DefaultMaxInflightPerWorker
	}
	return o
}

// worker is the coordinator's book on one remote worker. Guarded by the
// coordinator's mutex.
type worker struct {
	client *Client

	alive      bool
	lastErr    string
	queueDepth int // last probed engine queue depth
	probed     engine.Stats

	inflight   int     // units currently dispatched by this coordinator
	ewmaSec    float64 // EWMA of observed per-cell latency
	hasEWMA    bool
	dispatched uint64 // units sent
	completed  uint64 // units that returned results
	failed     uint64 // units that errored (transport or status)

	// uploaded tracks trace digests pushed to this worker. Cleared on a
	// dead→alive transition: a restart may have lost the in-memory
	// upload store, so the coordinator re-pushes on demand.
	uploaded map[string]bool
}

// ewmaWeight is the weight of the newest per-cell latency sample.
const ewmaWeight = 0.3

// score is the scheduler's load estimate: expected per-cell latency
// scaled by how much work is already stacked on the worker (its probed
// engine queue plus the units this coordinator has in flight). Lower is
// better; a worker with no history scores 0 and gets tried first.
func (w *worker) score() float64 {
	return w.ewmaSec * float64(1+w.queueDepth+w.inflight)
}

// counters are the coordinator's lifetime counters (cluster-wide, all
// sweeps). Guarded by the coordinator's mutex.
type counters struct {
	CellsDispatched      uint64 `json:"cells_dispatched"`
	CellsRescheduled     uint64 `json:"cells_rescheduled"`
	RedundantCompletions uint64 `json:"redundant_completions"`
	WorkerCacheHits      uint64 `json:"worker_cache_hits"`
	CellsComputed        uint64 `json:"cells_computed"`
}

// Coordinator is the worker table behind remote unit runs: it picks a
// worker for each attempt, tracks the attempts in flight so a worker's
// death reaches them, and keeps the cluster counters.
type Coordinator struct {
	opts Options
	log  *slog.Logger

	ctx       context.Context
	cancel    context.CancelFunc
	probeDone chan struct{}

	mu      sync.Mutex
	workers []*worker
	// attempts are the dispatches in flight, by identity.
	attempts map[*attempt]struct{}
	// freed is closed, and replaced, whenever a dispatch slot may have
	// opened (a release or a revival); runs waiting for a worker wait
	// on it.
	freed    chan struct{}
	counters counters
}

// New starts a coordinator over the given workers (all assumed alive
// until a probe or dispatch says otherwise) and its background health
// prober. Close it when done.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	co := &Coordinator{
		opts:      opts,
		log:       log,
		ctx:       ctx,
		cancel:    cancel,
		probeDone: make(chan struct{}),
		attempts:  make(map[*attempt]struct{}),
		freed:     make(chan struct{}),
	}
	for _, c := range opts.Workers {
		co.workers = append(co.workers, &worker{client: c, alive: true, uploaded: make(map[string]bool)})
	}
	go co.probeLoop()
	return co, nil
}

// Slots is how many units the coordinator can have dispatched at once:
// workers × MaxInflightPerWorker. A coordinator daemon sizes its engine
// to it, so every engine worker can hold one dispatch.
func (co *Coordinator) Slots() int {
	return len(co.workers) * co.opts.MaxInflightPerWorker
}

// Close stops the prober and fails every unit run still dispatching.
func (co *Coordinator) Close() {
	co.cancel()
	<-co.probeDone
}

// probeLoop periodically probes every worker.
func (co *Coordinator) probeLoop() {
	defer close(co.probeDone)
	t := time.NewTicker(co.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-co.ctx.Done():
			return
		case <-t.C:
			co.probeAll()
		}
	}
}

// probeAll probes every worker concurrently and applies the liveness
// transitions: dead→alive resumes scheduling (and forgets uploaded
// traces — a restart may have lost them), alive→dead hedges the
// worker's in-flight units onto survivors.
//
// A probe that outlives its period has only missed one deadline: a
// healthy worker under CPU load may answer /healthz late, and downing
// it would hedge every unit it is computing. So a probe runs on into
// the next period, and only one still unanswered at that second
// consecutive deadline downs the worker. Transport errors and draining
// down it at once.
func (co *Coordinator) probeAll() {
	ctx, cancel := context.WithTimeout(co.ctx, 2*co.opts.ProbeInterval)
	defer cancel()
	healths := make([]Health, len(co.workers))
	errs := make([]error, len(co.workers))
	var wg sync.WaitGroup
	for i, w := range co.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			healths[i], errs[i] = w.client.Probe(ctx)
		}()
	}
	wg.Wait()

	var downs []func()
	revived := false
	co.mu.Lock()
	for i, w := range co.workers {
		switch {
		case errs[i] != nil:
			if w.alive {
				downs = append(downs, co.downLocked(w, errs[i].Error()))
			}
		case !healths[i].OK:
			if w.alive {
				downs = append(downs, co.downLocked(w, "draining ("+healths[i].State+")"))
			}
		default:
			if !w.alive {
				w.alive = true
				w.lastErr = ""
				w.uploaded = make(map[string]bool)
				revived = true
				co.log.Info("cluster worker revived", "worker", w.client.Name())
			}
			w.queueDepth = healths[i].Stats.QueueDepth
			w.probed = healths[i].Stats
		}
	}
	if revived {
		co.wakeLocked()
	}
	co.mu.Unlock()
	for _, down := range downs {
		down()
	}
}

// markDead records a dispatch-observed transport failure and hedges the
// worker's in-flight units. No-op if the worker is already dead.
func (co *Coordinator) markDead(w *worker, err error) {
	co.mu.Lock()
	if !w.alive {
		co.mu.Unlock()
		return
	}
	down := co.downLocked(w, err.Error())
	co.mu.Unlock()
	down()
}

// downLocked marks w dead and hedges every attempt in flight on it, in
// one critical section, so no attempt outlives its worker unhedged: a
// hedged attempt's run starts another attempt on a survivor at once,
// without waiting for (or canceling) this one, and the unit's cells
// count as rescheduled. If the lost attempt delivers anyway, the first
// success wins. It returns what must run once co.mu is released: the
// log records and the hedge signals.
func (co *Coordinator) downLocked(w *worker, reason string) func() {
	w.alive = false
	w.lastErr = reason
	var hedged []*attempt
	cells := 0
	for a := range co.attempts {
		if a.w == w && !a.hedged && a.run.ctx.Err() == nil {
			a.hedged = true
			hedged = append(hedged, a)
			cells += len(a.run.unit)
		}
	}
	co.counters.CellsRescheduled += uint64(cells)
	return func() {
		co.log.Warn("cluster worker down", "worker", w.client.Name(), "error", reason)
		for _, a := range hedged {
			a.run.events <- attemptEvent{a: a, hedge: true}
		}
		if cells > 0 {
			co.log.Info("cluster cells rescheduled", "worker", w.client.Name(), "cells", cells)
		}
	}
}

// acquire starts attempt a on the least-loaded alive worker with
// dispatch headroom: it reserves one in-flight slot there and tracks a.
// When no worker qualifies it returns false and a channel that is
// closed once a slot may have opened.
func (co *Coordinator) acquire(a *attempt) (<-chan struct{}, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	var best *worker
	for _, w := range co.workers {
		if !w.alive || w.inflight >= co.opts.MaxInflightPerWorker {
			continue
		}
		if best == nil || w.score() < best.score() {
			best = w
		}
	}
	if best == nil {
		return co.freed, false
	}
	best.inflight++
	best.dispatched++
	a.w = best
	co.attempts[a] = struct{}{}
	co.counters.CellsDispatched += uint64(len(a.run.unit))
	return nil, true
}

// release ends attempt a: it returns the worker's in-flight slot, stops
// tracking a and reports whether a was hedged. perCell, when positive,
// marks a success and folds into the worker's per-cell latency EWMA;
// failed marks a failure (an attempt canceled because another won is
// neither).
func (co *Coordinator) release(a *attempt, failed bool, perCell time.Duration) (hedged bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	delete(co.attempts, a)
	w := a.w
	w.inflight--
	switch {
	case perCell > 0:
		w.completed++
		sample := perCell.Seconds()
		if !w.hasEWMA {
			w.ewmaSec, w.hasEWMA = sample, true
		} else {
			w.ewmaSec = ewmaWeight*sample + (1-ewmaWeight)*w.ewmaSec
		}
	case failed:
		w.failed++
	}
	co.wakeLocked()
	return a.hedged
}

// wakeLocked wakes every run waiting for a dispatch slot. Caller holds
// co.mu.
func (co *Coordinator) wakeLocked() {
	close(co.freed)
	co.freed = make(chan struct{})
}

// ensureTraces pushes any referenced trace the worker has not been sent
// yet. Content addressing makes double-pushes harmless, so the uploaded
// set is an optimization, not a correctness requirement.
func (co *Coordinator) ensureTraces(ctx context.Context, w *worker, tenant, id string, traces []sim.TraceInput) error {
	for _, in := range traces {
		co.mu.Lock()
		have := w.uploaded[in.Digest]
		co.mu.Unlock()
		if have {
			continue
		}
		if err := w.client.UploadTrace(ctx, tenant, id, in.Data); err != nil {
			return err
		}
		co.mu.Lock()
		w.uploaded[in.Digest] = true
		co.mu.Unlock()
	}
	return nil
}

// WorkerStats is one worker's row in a Stats snapshot.
type WorkerStats struct {
	Name            string  `json:"name"`
	URL             string  `json:"url"`
	Alive           bool    `json:"alive"`
	QueueDepth      int     `json:"queue_depth"`
	CacheEntries    int     `json:"cache_entries"`
	Inflight        int     `json:"inflight"`
	EWMACellSeconds float64 `json:"ewma_cell_seconds"`
	Dispatched      uint64  `json:"dispatched"`
	Completed       uint64  `json:"completed"`
	Failed          uint64  `json:"failed"`
	LastError       string  `json:"last_error,omitempty"`
}

// Stats is a coordinator snapshot. Every field — the counters and the
// whole worker table — is copied under one mutex hold, so a render
// never mixes states from different instants (the same discipline as
// the service's metrics snapshot).
type Stats struct {
	WorkersConfigured int `json:"workers_configured"`
	WorkersAlive      int `json:"workers_alive"`
	counters
	Workers []WorkerStats `json:"workers"`
}

// Stats snapshots the coordinator under a single mutex hold.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := Stats{
		WorkersConfigured: len(co.workers),
		counters:          co.counters,
	}
	for _, w := range co.workers {
		if w.alive {
			st.WorkersAlive++
		}
		st.Workers = append(st.Workers, WorkerStats{
			Name:            w.client.Name(),
			URL:             w.client.URL(),
			Alive:           w.alive,
			QueueDepth:      w.queueDepth,
			CacheEntries:    w.probed.CacheEntries,
			Inflight:        w.inflight,
			EWMACellSeconds: w.ewmaSec,
			Dispatched:      w.dispatched,
			Completed:       w.completed,
			Failed:          w.failed,
			LastError:       w.lastErr,
		})
	}
	return st
}
