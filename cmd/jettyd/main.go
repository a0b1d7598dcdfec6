// Command jettyd serves the JETTY experiment engine over HTTP/JSON: many
// clients submit experiments, poll their progress and fetch the finished
// tables, while one shared engine enforces the concurrency cap and its
// content-addressed cache deduplicates identical work.
//
// Usage:
//
//	jettyd                       # listen on :8077, GOMAXPROCS workers
//	jettyd -addr :9000 -workers 4 -cache 512
//	jettyd -log-format text -log-level debug -pprof
//
// Quick tour (see README.md for more):
//
//	curl -s localhost:8077/healthz
//	curl -s localhost:8077/buildinfo
//	curl -s localhost:8077/metrics
//	curl -s -X POST localhost:8077/v1/experiments \
//	     -d '{"apps":["Barnes","Ocean"],"scale":0.1}'
//	curl -s localhost:8077/v1/experiments/exp-000001
//	curl -s localhost:8077/v1/experiments/exp-000001/result
//
// Bring your own trace (record with tracecat or jettysim -capture):
//
//	curl -s --data-binary @ocean.jtrc localhost:8077/v1/traces
//	curl -s -X POST localhost:8077/v1/experiments -d '{"trace":"<digest>"}'
//
// Every response carries an X-Request-Id header; the same ID appears in
// the access log and in the status JSON of any job the request
// submitted, so a slow experiment is greppable end to end.
//
// Multi-tenant use: send an X-Jetty-Tenant header to submit under a
// named tenant. The engine schedules tenants fair-share (weights via
// -tenant-weights), per-tenant quotas answer 429 + Retry-After when one
// tenant is over its share (-max-unfinished-per-tenant,
// -max-cells-per-tenant, -max-traces-per-tenant), and the global
// admission cap answers 503 when the daemon as a whole is saturated.
//
// Cluster mode shards sweeps across several daemons (see DESIGN.md,
// "Cluster mode"):
//
//	jettyd -role worker -addr :8081
//	jettyd -role worker -addr :8082
//	jettyd -role coordinator -addr :8077 \
//	       -cluster-workers http://localhost:8081,http://localhost:8082
//
// The coordinator serves the same API as a single daemon — clients POST
// sweeps and experiments exactly as before — but cells run on the
// workers, lost workers are detected and their cells rescheduled, and
// GET /v1/cluster/status reports the worker table and cluster counters.
// Its -cache, -data-dir and -tenant-weights apply to its own engine,
// which is sized to the workers' dispatch slots, so it takes no
// -workers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jetty/internal/cluster"
	"jetty/internal/obs"
	"jetty/internal/service"
	"jetty/internal/store"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", 0, "engine worker count (0 = GOMAXPROCS; not with -role coordinator)")
	cache := flag.Int("cache", 0, "result-cache entries (0 = default, negative disables)")
	maxUnfinished := flag.Int("max-unfinished", 0, "max queued+running jobs across all tenants (0 = default)")
	maxTenantJobs := flag.Int("max-unfinished-per-tenant", 0, "max queued+running jobs per tenant (0 = default)")
	maxTenantCells := flag.Int("max-cells-per-tenant", 0, "max queued engine jobs (runs + sweep cells) per tenant (0 = default)")
	maxTraces := flag.Int("max-traces", 0, "max uploaded traces retained (0 = default)")
	maxTenantTraces := flag.Int("max-traces-per-tenant", 0, "max uploaded traces per tenant (0 = default)")
	maxTraceBytes := flag.Int64("max-trace-bytes", 0, "max bytes per uploaded trace (0 = default)")
	tenantWeights := flag.String("tenant-weights", "", "fair-share weights, e.g. 'ci=4,batch=1' (unlisted tenants get 1)")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "full-request read deadline (headers + body)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle deadline")
	logFormat := flag.String("log-format", "json", "log output format: json|text")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	slowJob := flag.Duration("slow-job", 0, "log engine jobs running longer than this (0 = default 30s)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	role := flag.String("role", "single", "daemon role: single|worker|coordinator")
	clusterWorkers := flag.String("cluster-workers", "", "comma-separated worker base URLs (coordinator role only)")
	probeInterval := flag.Duration("cluster-probe-interval", 0, "worker health-probe period (0 = default 2s)")
	requestTimeout := flag.Duration("cluster-request-timeout", 0, "per-dispatch deadline before a unit is rescheduled (0 = default 5m)")
	dataDir := flag.String("data-dir", "", "durable data directory: traces, job journal and results survive restarts (empty = in-memory only)")
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jettyd:", err)
		os.Exit(2)
	}
	weights, err := parseWeights(*tenantWeights)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jettyd:", err)
		os.Exit(2)
	}
	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jettyd:", err)
			os.Exit(2)
		}
		stats := st.Stats()
		log.Info("durable store open", "dir", st.Dir(),
			"results", stats.Results, "traces", stats.Traces, "pending_jobs", stats.PendingJobs)
	}
	coord, err := buildCluster(*role, *clusterWorkers, *workers, *probeInterval, *requestTimeout, log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jettyd:", err)
		os.Exit(2)
	}

	if err := run(service.Options{
		Workers:                 *workers,
		CacheEntries:            *cache,
		MaxUnfinished:           *maxUnfinished,
		MaxUnfinishedPerTenant:  *maxTenantJobs,
		MaxQueuedCellsPerTenant: *maxTenantCells,
		MaxTraces:               *maxTraces,
		MaxTracesPerTenant:      *maxTenantTraces,
		MaxTraceBytes:           *maxTraceBytes,
		TenantWeights:           weights,
		Logger:                  log,
		SlowJob:                 *slowJob,
		Pprof:                   *pprofFlag,
		Role:                    *role,
		Cluster:                 coord,
		Store:                   st,
	}, *addr, httpTimeouts{read: *readTimeout, idle: *idleTimeout}); err != nil {
		log.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// buildCluster validates the role/worker flag combination and, for the
// coordinator role, dials the worker set. Workers and single-role
// daemons must not name workers — a worker fanning out to other workers
// would silently double-schedule cells. A coordinator takes no
// -workers (engineWorkers): its engine is sized to the cluster's
// dispatch slots, so the flag would be ignored.
func buildCluster(role, workersCSV string, engineWorkers int, probe, reqTimeout time.Duration, log *slog.Logger) (*cluster.Coordinator, error) {
	switch role {
	case "single", "worker":
		if workersCSV != "" {
			return nil, fmt.Errorf("-cluster-workers requires -role coordinator (got -role %s)", role)
		}
		return nil, nil
	case "coordinator":
	default:
		return nil, fmt.Errorf("-role must be single, worker or coordinator (got %q)", role)
	}
	if workersCSV == "" {
		return nil, fmt.Errorf("-role coordinator requires -cluster-workers")
	}
	if engineWorkers != 0 {
		return nil, fmt.Errorf("-workers does not apply to -role coordinator: its engine runs one dispatch per worker slot")
	}
	var clients []*cluster.Client
	for _, raw := range strings.Split(workersCSV, ",") {
		c, err := cluster.NewClient(strings.TrimSpace(raw))
		if err != nil {
			return nil, fmt.Errorf("-cluster-workers: %w", err)
		}
		clients = append(clients, c)
	}
	return cluster.New(cluster.Options{
		Workers:        clients,
		ProbeInterval:  probe,
		RequestTimeout: reqTimeout,
		Logger:         log,
	})
}

// parseWeights parses the -tenant-weights flag: comma-separated
// name=weight pairs, weights positive integers.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("-tenant-weights: %q is not name=weight", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-tenant-weights: weight %q for %q must be a positive integer", val, name)
		}
		weights[name] = w
	}
	return weights, nil
}

// httpTimeouts are the server's connection-reaping knobs. A WriteTimeout
// is deliberately absent: SSE live streams write for the lifetime of an
// experiment, and a write deadline would sever them mid-run. The read
// and idle deadlines reap abandoned uploads and idle keep-alives, which
// an open SSE response never trips (the server is writing, not reading).
type httpTimeouts struct {
	read time.Duration // full-request read deadline (headers + body)
	idle time.Duration // keep-alive idle reaping
}

func run(opts service.Options, addr string, timeouts httpTimeouts) error {
	log := opts.Logger
	svc := service.New(opts)
	defer svc.Close()

	srv := &http.Server{
		Addr:              addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       timeouts.read,
		IdleTimeout:       timeouts.idle,
	}

	// Serve until SIGINT/SIGTERM, then drain: /healthz flips to 503 so
	// load balancers stop routing here, in-flight HTTP requests finish,
	// and only then is the engine torn down.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		bi := obs.ReadBuildInfo()
		log.Info("serving", "addr", addr, "version", bi.Version, "go", bi.GoVersion, "pprof", opts.Pprof)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Info("shutting down", "state", "draining")
		svc.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}
