package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"jetty/internal/engine"
	"jetty/internal/lru"
	"jetty/internal/sim"
)

// Defaults for the zero Options fields.
const (
	DefaultProbeInterval        = 2 * time.Second
	DefaultRequestTimeout       = 5 * time.Minute
	DefaultMaxAttempts          = 8
	DefaultRetryBackoff         = 100 * time.Millisecond
	DefaultMaxInflightPerWorker = 4
	DefaultMemoEntries          = 4096
)

// maxRetryBackoff caps the exponential retry backoff.
const maxRetryBackoff = 2 * time.Second

// Options configures a Coordinator.
type Options struct {
	// Workers are the remote jettyd workers to shard cells across.
	// Required, at least one.
	Workers []*Client
	// ProbeInterval is the health-probe period (0 = 2s). A worker whose
	// probe fails transport, or reports draining, is marked dead: its
	// in-flight units are hedged onto survivors immediately and it gets
	// no new work until a probe succeeds again.
	ProbeInterval time.Duration
	// RequestTimeout bounds one cell-unit dispatch (0 = 5m). A timed-out
	// dispatch counts as a transport failure.
	RequestTimeout time.Duration
	// MaxAttempts bounds dispatches per cell unit before the sweep fails
	// (0 = 8).
	MaxAttempts int
	// RetryBackoff is the base delay before redispatching a unit after a
	// transient (5xx/429) worker reply; it doubles per attempt up to 2s
	// (0 = 100ms).
	RetryBackoff time.Duration
	// MaxInflightPerWorker bounds concurrently dispatched units per
	// worker (0 = 4).
	MaxInflightPerWorker int
	// MemoEntries is the L2 digest→result memo capacity (0 = 4096,
	// negative disables memoization — the same contract as the -cache
	// flag).
	MemoEntries int
	// Store, when non-nil, persists the memo's results: every delivered
	// cell result is written through, and cells the in-memory memo
	// cannot resolve are probed here before any dispatch. Backed by the
	// same crash-safe result directory as the local engine's L3, it
	// makes the digest→result memo survive coordinator restarts.
	Store engine.ResultStore
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
	if o.MemoEntries == 0 {
		o.MemoEntries = DefaultMemoEntries
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
	MemoHits             uint64 `json:"memo_hits"`
	WorkerCacheHits      uint64 `json:"worker_cache_hits"`
	CellsComputed        uint64 `json:"cells_computed"`
}

// Coordinator shards sweeps across remote jettyd workers.
type Coordinator struct {
	opts Options
	log  *slog.Logger

	ctx       context.Context
	cancel    context.CancelFunc
	probeDone chan struct{}

	mu      sync.Mutex
	workers []*worker
	// memo is the digest→result L2 of the cluster's two-tier result
	// cache (each worker's engine cache is an L1): a rerun of an
	// identical spec resolves every cell here without a dispatch.
	// Values are cloned on both sides; MemoEntries < 0 stores nothing.
	memo     *lru.LRU[sim.AppResult]
	sweeps   map[*Sweep]struct{}
	counters counters
	closed   bool
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
		memo:      newMemo(opts.MemoEntries),
		sweeps:    make(map[*Sweep]struct{}),
	}
	for _, c := range opts.Workers {
		co.workers = append(co.workers, &worker{client: c, alive: true, uploaded: make(map[string]bool)})
	}
	go co.probeLoop()
	return co, nil
}

// newMemo builds the L2 memo: an LRU of capacity results that clones
// them on both sides. A capacity ≤ 0 stores nothing.
func newMemo(capacity int) *lru.LRU[sim.AppResult] {
	return lru.New(capacity, sim.AppResult.Clone)
}

// Close stops the prober and fails every active sweep.
func (co *Coordinator) Close() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	co.mu.Unlock()
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
func (co *Coordinator) probeAll() {
	ctx, cancel := context.WithTimeout(co.ctx, co.opts.ProbeInterval)
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

	var died []*worker
	revived := false
	co.mu.Lock()
	for i, w := range co.workers {
		switch {
		case errs[i] != nil:
			if w.alive {
				w.alive = false
				w.lastErr = errs[i].Error()
				died = append(died, w)
			}
		case !healths[i].OK:
			if w.alive {
				w.alive = false
				w.lastErr = "draining (" + healths[i].State + ")"
				died = append(died, w)
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
	sweeps := make([]*Sweep, 0, len(co.sweeps))
	for s := range co.sweeps {
		sweeps = append(sweeps, s)
	}
	co.mu.Unlock()

	for _, w := range died {
		co.log.Warn("cluster worker down", "worker", w.client.Name(), "error", w.lastErr)
		for _, s := range sweeps {
			s.workerDown(w)
		}
	}
	if revived {
		for _, s := range sweeps {
			s.kickScheduler()
		}
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
	w.alive = false
	w.lastErr = err.Error()
	sweeps := make([]*Sweep, 0, len(co.sweeps))
	for s := range co.sweeps {
		sweeps = append(sweeps, s)
	}
	co.mu.Unlock()
	co.log.Warn("cluster worker down", "worker", w.client.Name(), "error", err)
	for _, s := range sweeps {
		s.workerDown(w)
	}
}

// acquire picks the least-loaded alive worker with dispatch headroom,
// reserving one in-flight slot. Returns nil when no worker qualifies.
func (co *Coordinator) acquire() *worker {
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
	if best != nil {
		best.inflight++
		best.dispatched++
	}
	return best
}

// release returns a worker's in-flight slot. perCell, when positive,
// folds into the worker's per-cell latency EWMA.
func (co *Coordinator) release(w *worker, ok bool, perCell time.Duration) {
	co.mu.Lock()
	defer co.mu.Unlock()
	w.inflight--
	if ok {
		w.completed++
		if perCell > 0 {
			sample := perCell.Seconds()
			if !w.hasEWMA {
				w.ewmaSec, w.hasEWMA = sample, true
			} else {
				w.ewmaSec = ewmaWeight*sample + (1-ewmaWeight)*w.ewmaSec
			}
		}
	} else {
		w.failed++
	}
}

// ensureTraces pushes any referenced trace the worker has not been sent
// yet. Content addressing makes double-pushes harmless, so the uploaded
// set is an optimization, not a correctness requirement.
func (co *Coordinator) ensureTraces(ctx context.Context, w *worker, tenant string, traces []sim.TraceInput) error {
	for _, in := range traces {
		co.mu.Lock()
		have := w.uploaded[in.Digest]
		co.mu.Unlock()
		if have {
			continue
		}
		if err := w.client.UploadTrace(ctx, tenant, in.Data); err != nil {
			return err
		}
		co.mu.Lock()
		w.uploaded[in.Digest] = true
		co.mu.Unlock()
	}
	return nil
}

// register adds an active sweep (so worker-death hedging reaches it).
func (co *Coordinator) register(s *Sweep) {
	co.mu.Lock()
	co.sweeps[s] = struct{}{}
	co.mu.Unlock()
}

// unregister removes a finished sweep.
func (co *Coordinator) unregister(s *Sweep) {
	co.mu.Lock()
	delete(co.sweeps, s)
	co.mu.Unlock()
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
	ActiveSweeps      int `json:"active_sweeps"`
	MemoEntries       int `json:"memo_entries"`
	counters
	Workers []WorkerStats `json:"workers"`
}

// Stats snapshots the coordinator under a single mutex hold.
func (co *Coordinator) Stats() Stats {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := Stats{
		WorkersConfigured: len(co.workers),
		ActiveSweeps:      len(co.sweeps),
		MemoEntries:       co.memo.Len(),
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
