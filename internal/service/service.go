// Package service implements jettyd's HTTP/JSON API: submit an
// experiment or a sweep, poll its status/progress, fetch the finished
// result tables. It is a thin, stateless-looking shell over the engine —
// the engine enforces the concurrency cap (worker pool) and deduplicates
// identical work (in-flight coalescing plus the content-addressed result
// cache), so any number of concurrent clients can drive one daemon
// safely.
//
// Every job is a sweep. An experiment is the one-machine, bank-mode
// sweep its request translates to (SubmitRequest.sweepSpec); the
// experiment endpoints render that sweep's status and result in the
// experiment response shapes.
//
// API (bodies JSON unless noted):
//
//	GET    /healthz                     liveness + engine stats
//	GET    /metrics                     service counters, Prometheus text format
//	GET    /buildinfo                   the binary's build metadata
//	GET    /v1/workloads                the workload library (Table 2 + scenarios)
//	GET    /v1/filters                  the figure filter configurations
//	POST   /v1/experiments              submit (SubmitRequest) -> 202 ExperimentStatus
//	GET    /v1/experiments              list all experiments
//	GET    /v1/experiments/{id}         status/progress
//	GET    /v1/experiments/{id}/result  finished results + rendered tables
//	GET    /v1/experiments/{id}/timeline  finished per-app timelines (sampled runs)
//	GET    /v1/experiments/{id}/live    SSE stream of timeline windows while running
//	DELETE /v1/experiments/{id}         cancel and forget
//	POST   /v1/sweeps                   submit (sweep.Spec) -> 202 SweepStatus
//	GET    /v1/sweeps                   list all sweeps
//	GET    /v1/sweeps/{id}              aggregate + per-cell status
//	GET    /v1/sweeps/{id}/result       finished metrics + rendered aggregate tables
//	DELETE /v1/sweeps/{id}              cancel and forget
//	POST   /v1/cells                    run one unit of a sweep's cells (cluster worker endpoint)
//	GET    /v1/cluster/status           coordinator role: worker table and cluster counters
//	POST   /v1/traces                   upload a raw JTRC trace file -> TraceInfo
//	GET    /v1/traces                   list uploaded traces
//	GET    /v1/traces/{digest}          one uploaded trace's info
//	DELETE /v1/traces/{digest}          forget an uploaded trace
//	GET    /debug/pprof/                net/http/pprof (only with Options.Pprof)
//
// Uploaded traces are replayed by submitting an experiment whose
// "trace" field names the upload's digest (or a sweep with a
// "trace:<digest>" workload); the engine caches replay results under
// (trace digest, machine config), so identical uploads from different
// clients share one execution.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jetty/internal/cluster"
	"jetty/internal/engine"
	"jetty/internal/obs"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/store"
	"jetty/internal/sweep"
	"jetty/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Workers is the engine pool size (0 = GOMAXPROCS).
	Workers int
	// CacheEntries is the engine result-cache capacity (0 = default).
	CacheEntries int
	// MaxUnfinished bounds the jobs that are queued or running across all
	// tenants — experiments, sweeps and in-flight /v1/cells units alike;
	// extra submissions get 503 + Retry-After (the daemon as a whole is
	// saturated). 0 means the default (64).
	MaxUnfinished int
	// MaxUnfinishedPerTenant bounds one tenant's unfinished jobs, counted
	// as MaxUnfinished counts them; extra submissions get 429 +
	// Retry-After (the tenant is over quota, the daemon is not). 0 means
	// the default (16).
	MaxUnfinishedPerTenant int
	// MaxQueuedCellsPerTenant bounds one tenant's non-terminal engine
	// jobs (the cells of its experiments, sweeps and cell units) so a
	// single giant sweep cannot consume a tenant-jobs quota slot while
	// monopolizing the engine; extra submissions get 429 + Retry-After. 0
	// means the default (2048).
	MaxQueuedCellsPerTenant int
	// MaxTracesPerTenant bounds one tenant's stored uploads within the
	// global MaxTraces store; extra uploads get 429 + Retry-After. 0
	// means the default (8).
	MaxTracesPerTenant int
	// TenantWeights sets per-tenant fair-share weights for the engine's
	// deficit-round-robin queue: a tenant with weight w drains w tasks
	// per scheduling round. Unlisted tenants (and weights < 1) get 1.
	TenantWeights map[string]int
	// MaxRetained bounds the registry as a whole, experiments and sweeps
	// together: when a submission would exceed it, the oldest finished
	// jobs (and the results their cells pin) are evicted. 0 means the
	// default (512). Clients that fetch promptly never notice; a
	// long-running daemon never accumulates results without bound.
	MaxRetained int
	// MaxTraces bounds the uploaded-trace store; further uploads get
	// 507 until one is deleted. 0 means the default (32).
	MaxTraces int
	// MaxTraceBytes bounds one uploaded trace file. 0 means the default
	// (64 MB).
	MaxTraceBytes int64
	// Logger receives the access log, slow-job records and other
	// structured events. nil discards them (tests, embedded use).
	Logger *slog.Logger
	// SlowJob is the run-duration threshold past which a finished engine
	// job is logged at warn level. 0 means DefaultSlowJob (30s).
	SlowJob time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ on the service
	// handler. Off by default: the profiler is an operator tool, not
	// part of the public API surface.
	Pprof bool
	// Cluster, when set, makes this daemon a coordinator: sweeps and
	// experiments run on the engine as everywhere, but each unit's run
	// posts the unit to one of the coordinator's workers, and GET
	// /v1/cluster/status reports the cluster. The engine is then sized to
	// the coordinator's dispatch slots and Workers is ignored. Direct
	// cell units (POST /v1/cells) still run locally. The server takes
	// ownership: Close closes the coordinator.
	Cluster *cluster.Coordinator
	// Role names the daemon's cluster role in /healthz ("single",
	// "worker", "coordinator"; empty = "single"). Informational.
	Role string
	// Store, when set, makes the daemon durable: uploaded traces,
	// unfinished experiment/sweep submissions and completed engine
	// results persist to disk, and New replays the store — re-admitting
	// unfinished jobs and serving already-computed cells from disk — so
	// a restart (or crash) resumes work instead of losing it. The store
	// also acts as an L3 result tier under the engine's LRU. nil keeps
	// everything in memory (the pre-ISSUE-10 behavior).
	Store *store.Store
}

// Defaults for the zero Options values.
const (
	DefaultMaxUnfinished           = 64
	DefaultMaxUnfinishedPerTenant  = 16
	DefaultMaxQueuedCellsPerTenant = 2048
	DefaultMaxTracesPerTenant      = 8
	DefaultMaxRetained             = 512
	DefaultMaxTraces               = 32
	DefaultMaxTraceBytes           = 64 << 20
)

// Server owns the engine, the job registry and the uploaded-trace
// store.
type Server struct {
	eng             *engine.Engine
	maxUnfinished   int
	maxTenantJobs   int
	maxTenantCells  int
	maxTenantTraces int
	maxRetained     int
	maxTraces       int
	maxTraceBytes   int64
	pprof           bool
	cluster         *cluster.Coordinator // nil outside coordinator role
	role            string
	store           *store.Store // nil when the daemon is not durable

	tel      *telemetry  // instruments, logger, slow-job threshold
	draining atomic.Bool // set by SetDraining during shutdown

	mu         sync.Mutex
	jobs       map[string]*job // experiments and sweeps, by ID
	order      []string        // insertion order, for stable listings
	seq        int
	cellRuns   map[string]*sweep.Sweep // in-flight POST /v1/cells units
	traces     map[string]storedTrace  // by digest
	traceOrder []string                // upload order, for stable listings
}

// New builds a server (and its engine). Close it to stop the workers.
func New(opts Options) *Server {
	maxUnfinished := opts.MaxUnfinished
	if maxUnfinished <= 0 {
		maxUnfinished = DefaultMaxUnfinished
	}
	maxTenantJobs := opts.MaxUnfinishedPerTenant
	if maxTenantJobs <= 0 {
		maxTenantJobs = DefaultMaxUnfinishedPerTenant
	}
	maxTenantCells := opts.MaxQueuedCellsPerTenant
	if maxTenantCells <= 0 {
		maxTenantCells = DefaultMaxQueuedCellsPerTenant
	}
	maxTenantTraces := opts.MaxTracesPerTenant
	if maxTenantTraces <= 0 {
		maxTenantTraces = DefaultMaxTracesPerTenant
	}
	maxRetained := opts.MaxRetained
	if maxRetained <= 0 {
		maxRetained = DefaultMaxRetained
	}
	maxTraces := opts.MaxTraces
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	maxTraceBytes := opts.MaxTraceBytes
	if maxTraceBytes <= 0 {
		maxTraceBytes = DefaultMaxTraceBytes
	}
	role := opts.Role
	if role == "" {
		role = "single"
	}
	tel := newTelemetry(opts.Logger, opts.SlowJob, opts.Cluster != nil, opts.Store != nil)
	// A nil *store.Store must yield a nil ResultStore interface (not a
	// non-nil interface holding a nil pointer), or the engine would probe
	// a dead tier on every submission.
	var resultStore engine.ResultStore
	if opts.Store != nil {
		resultStore = sim.NewDiskCache(opts.Store)
	}
	workers := opts.Workers
	if opts.Cluster != nil {
		workers = opts.Cluster.Slots()
	}
	eng := engine.New(engine.Options{
		Workers:       workers,
		CacheEntries:  opts.CacheEntries,
		OnRetire:      tel.onRetire,
		TenantWeights: opts.TenantWeights,
		Store:         resultStore,
	})
	s := &Server{
		eng:             eng,
		maxUnfinished:   maxUnfinished,
		maxTenantJobs:   maxTenantJobs,
		maxTenantCells:  maxTenantCells,
		maxTenantTraces: maxTenantTraces,
		maxRetained:     maxRetained,
		maxTraces:       maxTraces,
		maxTraceBytes:   maxTraceBytes,
		pprof:           opts.Pprof,
		cluster:         opts.Cluster,
		role:            role,
		store:           opts.Store,
		tel:             tel,
		jobs:            make(map[string]*job),
		cellRuns:        make(map[string]*sweep.Sweep),
		traces:          make(map[string]storedTrace),
	}
	s.restore()
	return s
}

// SetDraining flips the readiness state /healthz reports: a draining
// daemon answers 503 so load balancers stop routing to it while
// in-flight requests finish. jettyd sets it at shutdown-signal time,
// before http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Close stops the engine (canceling everything in flight) and, in
// coordinator role, the cluster coordinator.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
	s.eng.Close()
}

// Handler returns the service's HTTP handler: the API mux wrapped in
// the request-ID / access-log / latency middleware (middleware.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /buildinfo", s.handleBuildInfo)
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/filters", s.handleFilters)
	mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	mux.HandleFunc("GET /v1/experiments", s.handleList)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/experiments/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/experiments/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /v1/experiments/{id}/live", s.handleLive)
	mux.HandleFunc("DELETE /v1/experiments/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleSweepResult)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	mux.HandleFunc("POST /v1/cells", s.handleCells)
	mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	mux.HandleFunc("GET /v1/traces/{digest}", s.handleTraceInfo)
	mux.HandleFunc("DELETE /v1/traces/{digest}", s.handleTraceDelete)
	return s.withTelemetry(mux)
}

// SubmitRequest describes one experiment.
type SubmitRequest struct {
	// Apps are workload library names or abbreviations ("Barnes", "un",
	// "Throughput", "WebServer", ...). Empty means the Table 2 suite —
	// unless Trace is set.
	Apps []string `json:"apps,omitempty"`
	// Trace is the digest of a previously uploaded trace (POST
	// /v1/traces): the experiment replays that stored stream instead of
	// generating workloads. Mutually exclusive with Apps and Scale.
	Trace string `json:"trace,omitempty"`
	// CPUs is the machine width (default 4, or the trace's own width
	// for replay experiments).
	CPUs int `json:"cpus,omitempty"`
	// Scale multiplies every access budget (default 1 = the paper's).
	Scale float64 `json:"scale,omitempty"`
	// Filters are JETTY configuration names to attach; empty means the
	// union bank used by all of the paper's figures.
	Filters []string `json:"filters,omitempty"`
	// NSB disables L2 subblocking (the §4.3 comparison machine).
	NSB bool `json:"nsb,omitempty"`
	// Interval, when nonzero, samples every run with that timeline
	// window width (accesses per window). The finished experiment then
	// serves GET .../timeline, and GET .../live streams windows while it
	// runs. Sampling never changes the experiment's results.
	Interval uint64 `json:"interval,omitempty"`
}

// JobStatus is one app run's progress snapshot, including the lifecycle
// timing breakdown (queue wait, run time, disposition) and the request
// ID whose submission created the underlying execution — the same ID
// that request's response carried as X-Request-Id and its access-log
// record carried as "id".
type JobStatus struct {
	App         string  `json:"app"`
	Key         string  `json:"key"` // content address (cache/dedup key)
	State       string  `json:"state"`
	Done        uint64  `json:"done"`
	Total       uint64  `json:"total"`
	Fraction    float64 `json:"fraction"`
	CacheHit    bool    `json:"cache_hit,omitempty"`
	Disposition string  `json:"disposition,omitempty"` // executed|cache_hit|store_hit|coalesced
	Origin      string  `json:"origin,omitempty"`      // submitting request ID
	Tenant      string  `json:"tenant,omitempty"`      // submitting tenant
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	RunMS       float64 `json:"run_ms,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// ExperimentStatus is the aggregate progress snapshot.
type ExperimentStatus struct {
	ID       string      `json:"id"`
	Tenant   string      `json:"tenant,omitempty"`
	State    string      `json:"state"` // queued|running|done|failed|canceled
	Done     uint64      `json:"done"`
	Total    uint64      `json:"total"`
	Fraction float64     `json:"fraction"`
	Jobs     []JobStatus `json:"jobs"`
}

// ExperimentResult is the finished payload.
type ExperimentResult struct {
	ID      string            `json:"id"`
	Request SubmitRequest     `json:"request"`
	Results []sim.AppResult   `json:"results"`
	Tables  map[string]string `json:"tables"`
}

// handleHealthz is readiness-aware: a healthy daemon answers 200, a
// draining one (shutdown signal received, connections finishing) 503 —
// so a load balancer or orchestrator stops routing new work while
// in-flight requests complete.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state, code := "ready", http.StatusOK
	if s.draining.Load() {
		state, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"ok":      code == http.StatusOK,
		"state":   state,
		"role":    s.role,
		"workers": s.eng.Workers(),
		"stats":   s.eng.Stats(),
	})
}

// handleBuildInfo reports the running binary's build metadata (module
// version, go version, VCS revision) — the JSON twin of the
// jettyd_build_info metric.
func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.ReadBuildInfo())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type wl struct {
		Name     string `json:"name"`
		Abbrev   string `json:"abbrev"`
		Accesses uint64 `json:"accesses"`
	}
	var out []wl
	for _, sp := range workload.Library() {
		out = append(out, wl{sp.Name, sp.Abbrev, sp.Accesses})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFilters(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sim.AllFigureConfigs())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeJSON(w, r, false, &req) {
		return
	}
	s.mu.Lock()
	spec, err := req.sweepSpec(s.traceLocked)
	s.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := s.submit(w, r, spec, &req)
	if j == nil {
		return
	}
	s.tel.expSubmitted.Add(1)
	writeJSON(w, http.StatusAccepted, j.experimentStatus())
}

// Request bounds: everything here arrives from unauthenticated clients,
// so every dimension a request can grow in is capped (the sweep spec's
// own bounds, such as sweep.MaxScale, cap the rest).
const (
	// maxRequestBytes bounds the submit body size.
	maxRequestBytes = 1 << 20
	// maxListLen bounds the apps and filters list lengths (the full
	// suite is 10 apps; the full figure bank is 21 configurations).
	maxListLen = 64
)

// sweepSpec translates an experiment into the one-machine, bank-mode
// sweep that runs it; traces resolves the replay digest, whose width is
// the machine's unless CPUs says otherwise. It makes the experiment-only
// checks; the sweep spec's own validation does the rest.
func (req SubmitRequest) sweepSpec(traces sweep.TraceResolver) (sweep.Spec, error) {
	if len(req.Apps) > maxListLen || len(req.Filters) > maxListLen {
		return sweep.Spec{}, fmt.Errorf("apps/filters lists capped at %d entries", maxListLen)
	}
	spec := sweep.Spec{
		Workloads: req.Apps,
		Machines:  []sweep.Machine{{CPUs: req.CPUs, NSB: req.NSB}},
		Filters:   req.Filters,
		Scale:     req.Scale,
		Interval:  req.Interval,
	}
	if req.Interval > 0 {
		spec.Timelines = sweep.TimelinesAll
	}
	switch {
	case req.Trace != "":
		if len(req.Apps) > 0 {
			return sweep.Spec{}, fmt.Errorf("apps and trace are mutually exclusive")
		}
		if req.Scale != 0 && req.Scale != 1 {
			return sweep.Spec{}, fmt.Errorf("scale does not apply to a trace replay")
		}
		in, err := traces(req.Trace)
		if err != nil {
			return sweep.Spec{}, fmt.Errorf("unknown trace %q (upload it via POST /v1/traces)", req.Trace)
		}
		if req.CPUs == 0 {
			spec.Machines[0].CPUs = in.CPUs
		}
		spec.Workloads = []string{sweep.TracePrefix + req.Trace}
	case len(req.Apps) == 0:
		for _, sp := range workload.Specs() {
			spec.Workloads = append(spec.Workloads, sp.Name)
		}
	}
	return spec, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.list(true)
	out := make([]ExperimentStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.experimentStatus())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r, true); j != nil {
		writeJSON(w, http.StatusOK, j.experimentStatus())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r, true)
	if j == nil {
		return
	}
	res := s.result(w, r, j)
	if res == nil {
		return
	}
	results := appResults(res)
	writeJSON(w, http.StatusOK, ExperimentResult{
		ID:      j.id,
		Request: *j.req,
		Results: results,
		Tables:  renderTables(results, res.Cells[0].Cell.Config()),
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) { s.cancel(w, r, true) }

// experimentStatus renders the job's sweep status as an experiment's:
// one job per cell, named by its app.
func (j *job) experimentStatus() ExperimentStatus {
	st := j.sw.Status(true)
	cells := j.sw.Cells()
	out := ExperimentStatus{
		ID:       j.id,
		Tenant:   st.Tenant,
		State:    st.State,
		Done:     st.Done,
		Total:    st.Total,
		Fraction: st.Fraction,
		Jobs:     make([]JobStatus, len(st.Cell)),
	}
	for i, c := range st.Cell {
		out.Jobs[i] = JobStatus{
			App:         cells[i].Label().Name,
			Key:         c.Key,
			State:       c.State,
			Done:        c.Done,
			Total:       c.Total,
			Fraction:    cellFraction(c),
			CacheHit:    c.CacheHit,
			Disposition: c.Disposition,
			Origin:      c.Origin,
			Tenant:      c.Tenant,
			QueueWaitMS: c.QueueWaitMS,
			RunMS:       c.RunMS,
			Error:       c.Error,
		}
	}
	return out
}

// cellFraction is one cell's completed progress in 0..1: 1 once done,
// 0 while the total is unknown.
func cellFraction(c sweep.CellStatus) float64 {
	if c.State == engine.Done.String() {
		return 1
	}
	if c.Total == 0 {
		return 0
	}
	return min(1, float64(c.Done)/float64(c.Total))
}

// appResults returns an experiment's results in app order, each with
// its timeline attached again (the sweep keeps timelines apart from the
// cell results).
func appResults(res *sweep.Result) []sim.AppResult {
	out := make([]sim.AppResult, len(res.Cells))
	for i, c := range res.Cells {
		out[i] = c.Result
	}
	for _, tl := range res.Timelines {
		out[tl.Cell].Timeline = tl.Timeline
	}
	return out
}

// TraceInfo describes one uploaded trace.
type TraceInfo struct {
	Digest     string `json:"digest"`
	Name       string `json:"name"`
	Tenant     string `json:"tenant,omitempty"` // uploading tenant (quota owner)
	CPUs       int    `json:"cpus"`
	Records    uint64 `json:"records"`
	Bytes      int    `json:"bytes"`
	Compressed bool   `json:"compressed"`
}

// storedTrace is one uploaded trace and the tenant that uploaded it,
// whose quota the trace counts against.
type storedTrace struct {
	sim.TraceInput
	owner string
}

func traceInfo(t storedTrace) TraceInfo {
	return TraceInfo{
		Digest:     t.Digest,
		Name:       t.Name,
		Tenant:     t.owner,
		CPUs:       t.CPUs,
		Records:    t.Records,
		Bytes:      len(t.Data),
		Compressed: t.Compressed,
	}
}

// handleTraceUpload stores a raw JTRC file (the request body, optionally
// gzipped via Content-Encoding; the byte cap applies to the decompressed
// stream), validated and content-addressed. Re-uploading an identical
// file is a 200 no-op; a full store answers 507 until a trace is
// deleted; a tenant over its upload quota gets 429.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	body, err := requestBody(w, r, s.maxTraceBytes)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(body)
	}
	if err != nil {
		code := bodyErrorStatus(err)
		if code == http.StatusRequestEntityTooLarge {
			err = fmt.Errorf("trace exceeds the %d-byte upload cap", s.maxTraceBytes)
		} else if code == http.StatusBadRequest {
			err = fmt.Errorf("reading trace: %w", err)
		}
		writeError(w, code, err)
		return
	}
	in, err := sim.LoadTrace(r.URL.Query().Get("name"), data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	tenant := tenantFrom(r.Context())
	s.mu.Lock()
	if t, ok := s.traces[in.Digest]; ok {
		// Identical re-upload: a no-op that keeps the original owner (the
		// slot stays on the first uploader's quota).
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, traceInfo(t))
		return
	}
	if len(s.traces) >= s.maxTraces {
		s.mu.Unlock()
		writeError(w, http.StatusInsufficientStorage,
			fmt.Errorf("trace store holds its cap of %d traces; DELETE one first", s.maxTraces))
		return
	}
	if held := s.loadsLocked()[tenant].traces; held >= s.maxTenantTraces {
		s.mu.Unlock()
		s.tel.admissionRejected.With(tenant, "tenant_traces").Add(1)
		s.writeRetryError(w, http.StatusTooManyRequests, tenant,
			fmt.Errorf("tenant %q holds %d stored traces (per-tenant cap %d); DELETE one first",
				tenant, held, s.maxTenantTraces))
		return
	}
	t := storedTrace{in, tenant}
	s.traces[in.Digest] = t
	s.traceOrder = append(s.traceOrder, in.Digest)
	s.mu.Unlock()

	if s.store != nil {
		if err := s.store.PutTrace(in.Digest, in.Data, store.TraceMeta{Name: in.Name, Tenant: tenant}); err != nil {
			s.tel.log.Warn("trace persist failed", "digest", in.Digest, "err", err)
		}
	}
	s.tel.traceUploads.Add(1)
	writeJSON(w, http.StatusCreated, traceInfo(t))
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]TraceInfo, 0, len(s.traceOrder))
	for _, digest := range s.traceOrder {
		out = append(out, traceInfo(s.traces[digest]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTraceInfo(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	s.mu.Lock()
	t, ok := s.traces[digest]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q", digest))
		return
	}
	writeJSON(w, http.StatusOK, traceInfo(t))
}

func (s *Server) handleTraceDelete(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	s.mu.Lock()
	_, ok := s.traces[digest]
	if ok {
		delete(s.traces, digest)
		for i, d := range s.traceOrder {
			if d == digest {
				s.traceOrder = append(s.traceOrder[:i], s.traceOrder[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q", digest))
		return
	}
	if s.store != nil {
		s.store.DeleteTrace(digest)
	}
	// Running replays keep their own copy of the input; deleting only
	// frees the slot for new uploads.
	writeJSON(w, http.StatusOK, map[string]string{"digest": digest, "state": "deleted"})
}

// admitLocked runs the two-layer admission check for a submission by
// tenant that adds newCells engine jobs. The global cap answers 503 —
// the daemon as a whole is saturated and a load balancer should back
// off; a per-tenant quota answers 429 — this tenant is over its share
// while the daemon still has headroom. Both carry Retry-After. reason
// labels the rejection counter.
func (s *Server) admitLocked(tenant string, newCells int) (code int, reason string, err error) {
	loads := s.loadsLocked()
	if unfinishedJobs(loads) >= s.maxUnfinished {
		return http.StatusServiceUnavailable, "global_cap",
			fmt.Errorf("%d jobs already in flight (global cap)", s.maxUnfinished)
	}
	l := loads[tenant]
	if l.jobs >= s.maxTenantJobs {
		return http.StatusTooManyRequests, "tenant_jobs",
			fmt.Errorf("tenant %q has %d unfinished jobs (per-tenant cap %d)", tenant, l.jobs, s.maxTenantJobs)
	}
	if l.cells+newCells > s.maxTenantCells {
		return http.StatusTooManyRequests, "tenant_cells",
			fmt.Errorf("tenant %q would hold %d queued cells (per-tenant cap %d)",
				tenant, l.cells+newCells, s.maxTenantCells)
	}
	return 0, "", nil
}

// loadsLocked snapshots every tenant's occupancy: its unfinished jobs
// (experiments, sweeps and in-flight cell units), their non-terminal
// cells, and its stored traces. Every tenant with a registered job gets
// an entry, so its gauges read 0 once its load drains. Caller holds
// s.mu.
func (s *Server) loadsLocked() map[string]tenantLoad {
	loads := make(map[string]tenantLoad)
	add := func(tenant string, cells int) {
		l := loads[tenant]
		if cells > 0 {
			l.jobs++
			l.cells += cells
		}
		loads[tenant] = l
	}
	for _, j := range s.jobs {
		add(j.sw.Tenant(), j.sw.UnfinishedCells())
	}
	for _, sw := range s.cellRuns {
		add(sw.Tenant(), sw.UnfinishedCells())
	}
	for _, t := range s.traces {
		l := loads[t.owner]
		l.traces++
		loads[t.owner] = l
	}
	return loads
}

// unfinishedJobs totals the tenants' unfinished jobs: one admission cap
// covers every job kind.
func unfinishedJobs(loads map[string]tenantLoad) int {
	n := 0
	for _, l := range loads {
		n += l.jobs
	}
	return n
}

// renderTables renders the paper's reports that apply to one finished
// run set: the workload characterization, the coverage of every filter
// in the bank, and (when the Figure 6 hybrids are attached) the energy
// figure.
func renderTables(results []sim.AppResult, cfg smp.Config) map[string]string {
	tables := map[string]string{
		"table2": sim.Table2Report(results),
		"table3": sim.Table3Report(results),
	}
	if len(results) > 0 && len(results[0].FilterNames) > 0 {
		names := append([]string(nil), results[0].FilterNames...)
		sort.Strings(names)
		tables["coverage"] = sim.CoverageReport("Filter coverage", results, names, "")
		tables["fig6"] = sim.Fig6Report(results, cfg)
	}
	return tables
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// Retry-After hint parameters. The old implementation answered a flat
// "Retry-After: 1" on every rejection, so a saturated daemon taught all
// of its rejected clients to retry in the same second — a synchronized
// stampede that re-rejected everyone and repeated. The hint is now
// computed from live queue state (how much work stands between this
// client and admission, times how long a run takes) and jittered per
// response so retries spread out instead of thundering back together.
const (
	// retryFloorTenantSeconds floors the 429 hint: the tenant is over
	// quota while the daemon has headroom, so a quick retry is cheap.
	retryFloorTenantSeconds = 1
	// retryFloorGlobalSeconds floors the 503 hint: the whole daemon is
	// saturated, so even an empty-queue estimate should back off harder
	// than a per-tenant rejection. Keeping the floors distinct also lets
	// clients (and tests) tell the two rejection classes apart.
	retryFloorGlobalSeconds = 2
	// retryCeilSeconds caps the hint: past five minutes a bigger number
	// stops being a backoff hint and starts being a denial of service.
	retryCeilSeconds = 300
	// retryJitterFrac spreads hints multiplicatively over [1, 1.25) so
	// simultaneous rejections decorrelate.
	retryJitterFrac = 0.25
	// defaultRunEstimateSeconds stands in for the run-duration EWMA
	// until the engine has retired its first executed task.
	defaultRunEstimateSeconds = 1.0
)

// retryHintSeconds computes the Retry-After value for an admission
// rejection: backlog tasks ahead of the client, runSeconds each, spread
// over workers, jittered by jitter (in [0, retryJitterFrac)), floored
// by rejection class and capped. Pure — the HTTP wrapper below feeds it
// live state; tests feed it exact values.
func retryHintSeconds(code, backlog, workers int, runSeconds, jitter float64) int {
	if workers < 1 {
		workers = 1
	}
	if runSeconds <= 0 {
		runSeconds = defaultRunEstimateSeconds
	}
	est := float64(backlog) * runSeconds / float64(workers) * (1 + jitter)
	hint := int(math.Ceil(est))
	floor := retryFloorTenantSeconds
	if code == http.StatusServiceUnavailable {
		floor = retryFloorGlobalSeconds
	}
	if hint < floor {
		hint = floor
	}
	if hint > retryCeilSeconds {
		hint = retryCeilSeconds
	}
	return hint
}

// writeRetryError is writeError plus a Retry-After header — every
// admission rejection (global 503, per-tenant 429) tells well-behaved
// clients when to try again. The hint scales with the backlog the
// client is actually behind: the whole engine queue for a global 503,
// the tenant's own fair-share queue for a 429.
func (s *Server) writeRetryError(w http.ResponseWriter, code int, tenant string, err error) {
	st := s.eng.Stats()
	backlog := st.QueueDepth + st.Inflight
	if code != http.StatusServiceUnavailable {
		backlog = st.TenantQueues[tenant]
	}
	hint := retryHintSeconds(code, backlog, s.eng.Workers(),
		s.tel.runEWMASeconds(), rand.Float64()*retryJitterFrac)
	w.Header().Set("Retry-After", strconv.Itoa(hint))
	writeError(w, code, err)
}
