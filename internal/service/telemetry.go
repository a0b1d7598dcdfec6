package service

import (
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"jetty/internal/engine"
	"jetty/internal/obs"
	"jetty/internal/sweep"
)

// telemetry is the server's instrument panel: every histogram, counter
// and gauge /metrics exposes, plus the structured logger and the
// slow-job threshold. Handlers record into the instruments as events
// happen; scrape-time gauges are set from one consistent snapshot in
// handleMetrics (see snapshotGauges).
type telemetry struct {
	log     *slog.Logger
	slowJob time.Duration
	reg     *obs.Registry

	// Latency histograms (the ISSUE 6 tentpole set, tenant-labeled since
	// ISSUE 8).
	httpLatency *obs.HistogramFamily // route, status, tenant
	queueWait   *obs.HistogramFamily // kind, tenant
	runDuration *obs.HistogramFamily // kind, tenant
	sweepCell   *obs.Histogram       // sweep cell run duration
	fanoutLag   *obs.Histogram       // publish → SSE write lag

	// Event counters owned by the handlers.
	expSubmitted    *obs.Counter
	sweepSubmitted  *obs.Counter
	traceUploads    *obs.Counter
	evicted         *obs.Counter
	windowsStreamed *obs.Counter

	// Per-tenant admission accounting: rejection events as they happen,
	// occupancy gauges from the per-scrape snapshot.
	admissionRejected *obs.CounterFamily // tenant, reason
	tenantJobs        *obs.GaugeFamily   // tenant
	tenantCells       *obs.GaugeFamily   // tenant
	tenantQueueDepth  *obs.GaugeFamily   // tenant
	tenantTraces      *obs.GaugeFamily   // tenant

	// seenTenants remembers every tenant that ever had a per-tenant gauge
	// set, so a tenant whose load drains to zero scrapes as 0 rather than
	// freezing at its last value. Guarded by tenantMu; bounded because
	// tenant names are operator-facing identities, not request-scoped.
	tenantMu    sync.Mutex
	seenTenants map[string]struct{}

	// Live gauges the handlers adjust directly.
	liveSubscribers *obs.Gauge

	// Scrape-time gauges, set from one snapshot per scrape.
	expsRegistered   *obs.Gauge
	sweepsRegistered *obs.Gauge
	jobsUnfinished   *obs.Gauge
	admissionOcc     *obs.Gauge
	tracesStored     *obs.Gauge
	traceBytes       *obs.Gauge
	feedBuffered     *obs.Gauge
	engineWorkers    *obs.Gauge
	engineQueueDepth *obs.Gauge
	engineInflight   *obs.Gauge
	draining         *obs.Gauge

	// Engine lifetime counters, mirrored from engine.Stats per scrape.
	engSubmitted *obs.Counter
	engExecuted  *obs.Counter
	engCacheHits *obs.Counter
	engCoalesced *obs.Counter
	engCanceled  *obs.Counter
	engFailed    *obs.Counter

	// Stream memo instruments, mirrored from one sim.StreamStats()
	// snapshot per scrape. The memo is process-wide.
	streamMemoHits   *obs.Counter
	streamMemoMisses *obs.Counter
	streamMemoBytes  *obs.Gauge

	// Cluster instruments, registered only in coordinator role (nil
	// otherwise); set from one cluster.Stats() snapshot per scrape.
	clusterWorkersConfigured *obs.Gauge
	clusterWorkersAlive      *obs.Gauge
	clusterCellsDispatched   *obs.Counter
	clusterCellsRescheduled  *obs.Counter
	clusterRedundant         *obs.Counter
	clusterWorkerCacheHits   *obs.Counter
	clusterCellsComputed     *obs.Counter
	clusterWorkerAlive       *obs.GaugeFamily // worker
	clusterWorkerQueueDepth  *obs.GaugeFamily // worker
	clusterWorkerInflight    *obs.GaugeFamily // worker
	clusterWorkerEWMA        *obs.GaugeFamily // worker

	// Durable-store instruments, registered only when the daemon runs
	// with -data-dir (nil otherwise); set from one store.Stats() snapshot
	// per scrape.
	storeResults     *obs.Gauge
	storeTraces      *obs.Gauge
	storePendingJobs *obs.Gauge
	storeHits        *obs.Counter
	storeWrites      *obs.Counter
	storeErrors      *obs.Counter
	engStoreHits     *obs.Counter

	// runEWMA holds an exponentially weighted moving average of executed
	// task run durations (float64 bits), feeding the Retry-After hint's
	// per-task cost estimate. Atomic: onRetire writes from engine
	// workers, writeRetryError reads from handlers.
	runEWMA atomic.Uint64
}

// DefaultSlowJob is the run-duration threshold past which a finished
// engine job is logged at warn level when Options leaves SlowJob zero.
const DefaultSlowJob = 30 * time.Second

func newTelemetry(log *slog.Logger, slowJob time.Duration, clustered, persistent bool) *telemetry {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	if slowJob == 0 {
		slowJob = DefaultSlowJob
	}
	reg := obs.NewRegistry()
	t := &telemetry{log: log, slowJob: slowJob, reg: reg, seenTenants: make(map[string]struct{})}

	t.httpLatency = reg.NewHistogramFamily("jettyd_http_request_duration_seconds",
		"HTTP request latency by route pattern, status code and tenant.",
		[]string{"route", "status", "tenant"}, nil)
	t.queueWait = reg.NewHistogramFamily("jettyd_engine_queue_wait_seconds",
		"Time an executed engine task sat queued before a worker picked it up, by task kind and tenant.",
		[]string{"kind", "tenant"}, nil)
	t.runDuration = reg.NewHistogramFamily("jettyd_engine_run_duration_seconds",
		"Running time of executed engine tasks, by task kind and tenant.",
		[]string{"kind", "tenant"}, nil)
	t.sweepCell = reg.NewHistogramFamily("jettyd_sweep_cell_duration_seconds",
		"Running time of executed sweep cells.", nil, nil).With()
	t.fanoutLag = reg.NewHistogramFamily("jettyd_live_fanout_lag_seconds",
		"Lag between a timeline window's publication and its write to an SSE subscriber.",
		nil, nil).With()

	t.expSubmitted = reg.NewCounter("jettyd_experiments_submitted_total",
		"Experiments accepted via POST /v1/experiments.")
	t.sweepSubmitted = reg.NewCounter("jettyd_sweeps_submitted_total",
		"Sweeps accepted via POST /v1/sweeps.")
	t.traceUploads = reg.NewCounter("jettyd_trace_uploads_total",
		"Trace files stored via POST /v1/traces.")
	t.evicted = reg.NewCounter("jettyd_registry_evictions_total",
		"Finished experiments and sweeps evicted from the registry.")
	t.windowsStreamed = reg.NewCounter("jettyd_live_windows_streamed_total",
		"Timeline windows written to SSE subscribers.")

	t.admissionRejected = reg.NewCounterFamily("jettyd_admission_rejections_total",
		"Submissions rejected at admission, by tenant and reason (global_cap, tenant_jobs, tenant_cells, tenant_traces).",
		[]string{"tenant", "reason"})
	t.tenantJobs = reg.NewGaugeFamily("jettyd_tenant_jobs_unfinished",
		"Experiments and sweeps still queued or running, per tenant.",
		[]string{"tenant"})
	t.tenantCells = reg.NewGaugeFamily("jettyd_tenant_cells_unfinished",
		"Engine jobs (experiment runs and sweep cells) not yet terminal, per tenant.",
		[]string{"tenant"})
	t.tenantQueueDepth = reg.NewGaugeFamily("jettyd_tenant_queue_depth",
		"Engine executions waiting in the fair-share queue, per tenant.",
		[]string{"tenant"})
	t.tenantTraces = reg.NewGaugeFamily("jettyd_tenant_traces_stored",
		"Uploaded traces currently retained, per owning tenant.",
		[]string{"tenant"})

	t.liveSubscribers = reg.NewGauge("jettyd_live_subscribers",
		"SSE subscribers currently attached to /v1/experiments/{id}/live.")
	t.expsRegistered = reg.NewGauge("jettyd_experiments_registered",
		"Experiments currently in the registry.")
	t.sweepsRegistered = reg.NewGauge("jettyd_sweeps_registered",
		"Sweeps currently in the registry.")
	t.jobsUnfinished = reg.NewGauge("jettyd_jobs_unfinished",
		"Experiments and sweeps still queued or running (admission cap accounting).")
	t.admissionOcc = reg.NewGauge("jettyd_admission_occupancy",
		"Fraction of the admission cap in use (jobs unfinished / max unfinished).")
	t.tracesStored = reg.NewGauge("jettyd_traces_stored",
		"Uploaded traces currently retained.")
	t.traceBytes = reg.NewGauge("jettyd_trace_bytes_stored",
		"Total bytes of retained uploaded traces.")
	t.feedBuffered = reg.NewGauge("jettyd_live_feed_windows_buffered",
		"Timeline windows buffered across all live feeds awaiting (or replayable by) subscribers.")
	t.engineWorkers = reg.NewGauge("jettyd_engine_workers",
		"Engine worker pool size.")
	t.engineQueueDepth = reg.NewGauge("jettyd_engine_queue_depth",
		"Engine executions queued and not yet picked up by a worker.")
	t.engineInflight = reg.NewGauge("jettyd_engine_inflight",
		"Engine executions currently running on a worker.")
	t.draining = reg.NewGauge("jettyd_draining",
		"1 while the daemon is draining for shutdown, else 0.")

	t.engSubmitted = reg.NewCounter("jettyd_engine_submitted_total",
		"Tasks submitted to the engine.")
	t.engExecuted = reg.NewCounter("jettyd_engine_executed_total",
		"Tasks actually run by a worker.")
	t.engCacheHits = reg.NewCounter("jettyd_engine_cache_hits_total",
		"Submissions served from the finished-result cache.")
	t.engCoalesced = reg.NewCounter("jettyd_engine_coalesced_total",
		"Submissions attached to an identical in-flight run.")
	t.engCanceled = reg.NewCounter("jettyd_engine_canceled_total",
		"Executions that ended canceled.")
	t.engFailed = reg.NewCounter("jettyd_engine_failed_total",
		"Executions that ended in error.")
	t.streamMemoHits = reg.NewCounter("jettyd_stream_memo_hits_total",
		"Generated runs that replayed a memoized reference stream.")
	t.streamMemoMisses = reg.NewCounter("jettyd_stream_memo_misses_total",
		"Generated runs that found no memoized stream and ran the generator.")
	t.streamMemoBytes = reg.NewGauge("jettyd_stream_memo_bytes",
		"Bytes of reference streams memoized now.")

	if clustered {
		t.clusterWorkersConfigured = reg.NewGauge("jettyd_cluster_workers_configured",
			"Remote workers this coordinator is configured with.")
		t.clusterWorkersAlive = reg.NewGauge("jettyd_cluster_workers_alive",
			"Remote workers currently considered alive.")
		t.clusterCellsDispatched = reg.NewCounter("jettyd_cluster_cells_dispatched_total",
			"Cells sent to workers (every dispatch of every attempt).")
		t.clusterCellsRescheduled = reg.NewCounter("jettyd_cluster_cells_rescheduled_total",
			"Cells dispatched again because their worker was declared dead mid-unit.")
		t.clusterRedundant = reg.NewCounter("jettyd_cluster_redundant_completions_total",
			"Cell results delivered after another attempt at their unit had already won.")
		t.clusterWorkerCacheHits = reg.NewCounter("jettyd_cluster_worker_cache_hits_total",
			"Dispatched cells a worker served from its L1 engine cache or its persistent store (or coalesced onto in-flight work).")
		t.clusterCellsComputed = reg.NewCounter("jettyd_cluster_cells_computed_total",
			"Dispatched cells a worker actually executed.")
		t.clusterWorkerAlive = reg.NewGaugeFamily("jettyd_cluster_worker_alive",
			"1 while the worker is considered alive, else 0.", []string{"worker"})
		t.clusterWorkerQueueDepth = reg.NewGaugeFamily("jettyd_cluster_worker_queue_depth",
			"Last probed engine queue depth, per worker.", []string{"worker"})
		t.clusterWorkerInflight = reg.NewGaugeFamily("jettyd_cluster_worker_inflight",
			"Units this coordinator currently has dispatched, per worker.", []string{"worker"})
		t.clusterWorkerEWMA = reg.NewGaugeFamily("jettyd_cluster_worker_cell_latency_ewma_seconds",
			"Exponentially weighted moving average of observed per-cell latency, per worker.", []string{"worker"})
	}

	if persistent {
		t.storeResults = reg.NewGauge("jettyd_store_results",
			"Completed cell results resident in the durable store.")
		t.storeTraces = reg.NewGauge("jettyd_store_traces",
			"Uploaded traces resident in the durable store.")
		t.storePendingJobs = reg.NewGauge("jettyd_store_pending_jobs",
			"Journaled jobs: those the registry holds (replayed at next boot).")
		t.storeHits = reg.NewCounter("jettyd_store_hits_total",
			"Reads served from the durable store.")
		t.storeWrites = reg.NewCounter("jettyd_store_writes_total",
			"Entries durably written (results, traces, journal records).")
		t.storeErrors = reg.NewCounter("jettyd_store_errors_total",
			"Store operations that failed or discarded a corrupt entry.")
		t.engStoreHits = reg.NewCounter("jettyd_engine_store_hits_total",
			"Submissions served from the durable result store (the L3 under the engine cache).")
	}

	bi := obs.ReadBuildInfo()
	reg.NewGaugeFamily("jettyd_build_info",
		"Build metadata of the running jettyd binary (value is always 1).",
		[]string{"version", "go_version", "revision"}).
		With(bi.Version, bi.GoVersion, bi.Revision).Set(1)

	return t
}

// onRetire is the engine's telemetry hook: it observes the lifecycle
// histograms for executed tasks and logs slow jobs. Runs on engine
// workers — the histogram path is lock-free and allocation-free, the
// log fires only past the slow-job threshold.
func (t *telemetry) onRetire(tr engine.TaskTrace) {
	if tr.Disposition != engine.DispositionExecuted {
		return // cache hits and coalesced submissions did no work of their own
	}
	kind := tr.Kind
	if kind == "" {
		kind = "other"
	}
	tenant := tr.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	t.queueWait.With(kind, tenant).Observe(tr.QueueWait.Seconds())
	t.runDuration.With(kind, tenant).Observe(tr.Run.Seconds())
	t.observeRunEWMA(tr.Run.Seconds())
	if kind == sweep.KindSweep || kind == sweep.KindFused {
		// A fused unit's members are sweep cells too, also those of an
		// experiment that lists an app twice (every job is a sweep).
		t.sweepCell.Observe(tr.Run.Seconds())
	}
	if tr.Run >= t.slowJob {
		t.log.Warn("slow job",
			"kind", kind,
			"tenant", tenant,
			"key", tr.Key,
			"origin", tr.Origin,
			"state", tr.State.String(),
			"queue_wait_ms", durationMS(tr.QueueWait),
			"run_ms", durationMS(tr.Run))
	}
}

// runEWMAWeight is the smoothing factor for the executed-run-duration
// moving average: recent runs dominate within a handful of samples
// while one outlier cannot swing the Retry-After estimate by itself.
const runEWMAWeight = 0.2

// observeRunEWMA folds one executed run's duration into the moving
// average. Lock-free CAS loop: onRetire runs on engine workers.
func (t *telemetry) observeRunEWMA(sec float64) {
	for {
		old := t.runEWMA.Load()
		cur := math.Float64frombits(old)
		next := cur + runEWMAWeight*(sec-cur)
		if old == 0 {
			next = sec // first sample seeds the average
		}
		if t.runEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// runEWMASeconds reads the executed-run-duration moving average; 0
// until the first task retires.
func (t *telemetry) runEWMASeconds() float64 {
	return math.Float64frombits(t.runEWMA.Load())
}

// tenantLoad is one tenant's point-in-time occupancy, computed under the
// registry lock per submission and per scrape (see loadsLocked).
type tenantLoad struct {
	jobs   int // unfinished experiments, sweeps and cell units
	cells  int // non-terminal engine jobs across them
	queued int // executions waiting in the engine's fair-share queue
	traces int // retained uploaded traces owned by the tenant
}

// setTenantGauges publishes one consistent per-tenant snapshot. Tenants
// seen on earlier scrapes but absent from this one are explicitly zeroed
// so their series do not freeze at stale values.
func (t *telemetry) setTenantGauges(loads map[string]tenantLoad) {
	t.tenantMu.Lock()
	defer t.tenantMu.Unlock()
	for name := range t.seenTenants {
		if _, ok := loads[name]; !ok {
			loads[name] = tenantLoad{}
		}
	}
	for name, l := range loads {
		t.seenTenants[name] = struct{}{}
		t.tenantJobs.With(name).Set(float64(l.jobs))
		t.tenantCells.With(name).Set(float64(l.cells))
		t.tenantQueueDepth.With(name).Set(float64(l.queued))
		t.tenantTraces.With(name).Set(float64(l.traces))
	}
}

// durationMS renders a duration as fractional milliseconds for logs and
// JSON payloads.
func durationMS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}
