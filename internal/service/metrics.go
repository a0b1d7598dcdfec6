package service

import (
	"net/http"

	"jetty/internal/sim"
)

// Service-level observability: GET /metrics exposes the daemon's
// instruments in the Prometheus text exposition format (version 0.0.4),
// so a stock Prometheus scrape — or `curl localhost:8077/metrics` —
// sees admission, registry, trace-store, live-stream and engine state
// plus the request/job latency histograms without touching the JSON
// API. Event counters and histograms are recorded as events happen (see
// telemetry.go and middleware.go); point-in-time gauges are set here,
// from one consistent snapshot per scrape.

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.snapshotGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.tel.reg.WriteText(w)
}

// snapshotGauges captures all scrape-time state first — the registry
// under one s.mu acquisition, the engine counters in one Stats call —
// and only then writes the instruments, so a scrape can never observe
// torn registry-vs-engine state (the old handler interleaved unlocked
// engine reads with locked registry reads).
func (s *Server) snapshotGauges() {
	s.mu.Lock()
	var registered, buffered int
	for _, j := range s.jobs {
		if j.experiment() {
			registered++
		}
		if j.feed != nil {
			buffered += j.feed.buffered()
		}
	}
	sweepsRegistered := len(s.jobs) - registered
	tracesStored := len(s.traces)
	var traceBytes int
	for _, t := range s.traces {
		traceBytes += len(t.Data)
	}
	loads := s.loadsLocked()
	s.mu.Unlock()
	unfinished := unfinishedJobs(loads)

	st := s.eng.Stats()
	for tenant, depth := range st.TenantQueues {
		l := loads[tenant]
		l.queued = depth
		loads[tenant] = l
	}

	t := s.tel
	t.expsRegistered.Set(float64(registered))
	t.sweepsRegistered.Set(float64(sweepsRegistered))
	t.jobsUnfinished.Set(float64(unfinished))
	t.admissionOcc.Set(float64(unfinished) / float64(s.maxUnfinished))
	t.tracesStored.Set(float64(tracesStored))
	t.traceBytes.Set(float64(traceBytes))
	t.feedBuffered.Set(float64(buffered))
	t.engineWorkers.Set(float64(s.eng.Workers()))
	t.engineQueueDepth.Set(float64(st.QueueDepth))
	t.engineInflight.Set(float64(st.Inflight))
	if s.draining.Load() {
		t.draining.Set(1)
	} else {
		t.draining.Set(0)
	}
	t.setTenantGauges(loads)
	t.engSubmitted.Set(st.Submitted)
	t.engExecuted.Set(st.Executed)
	t.engCacheHits.Set(st.CacheHits)
	t.engCoalesced.Set(st.Coalesced)
	t.engCanceled.Set(st.Canceled)
	t.engFailed.Set(st.Failed)
	mst := sim.StreamStats()
	t.streamMemoHits.Set(mst.Hits)
	t.streamMemoMisses.Set(mst.Misses)
	t.streamMemoBytes.Set(float64(mst.Bytes))

	// Durable daemon: one store.Stats() snapshot feeds the store
	// instruments; the engine's store-hit counter rides the same engine
	// snapshot as the other mirrored counters above.
	if s.store != nil {
		sst := s.store.Stats()
		t.storeResults.Set(float64(sst.Results))
		t.storeTraces.Set(float64(sst.Traces))
		t.storePendingJobs.Set(float64(sst.PendingJobs))
		t.storeHits.Set(sst.Hits)
		t.storeWrites.Set(sst.Writes)
		t.storeErrors.Set(sst.Errors)
		t.engStoreHits.Set(st.StoreHits)
	}

	// Coordinator role: one cluster.Stats() snapshot (a single
	// coordinator-mutex hold) feeds every cluster instrument, so the
	// scrape can't tear against concurrent reschedules.
	if s.cluster != nil {
		cst := s.cluster.Stats()
		t.clusterWorkersConfigured.Set(float64(cst.WorkersConfigured))
		t.clusterWorkersAlive.Set(float64(cst.WorkersAlive))
		t.clusterCellsDispatched.Set(cst.CellsDispatched)
		t.clusterCellsRescheduled.Set(cst.CellsRescheduled)
		t.clusterRedundant.Set(cst.RedundantCompletions)
		t.clusterWorkerCacheHits.Set(cst.WorkerCacheHits)
		t.clusterCellsComputed.Set(cst.CellsComputed)
		for _, ws := range cst.Workers {
			alive := 0.0
			if ws.Alive {
				alive = 1
			}
			t.clusterWorkerAlive.With(ws.Name).Set(alive)
			t.clusterWorkerQueueDepth.With(ws.Name).Set(float64(ws.QueueDepth))
			t.clusterWorkerInflight.With(ws.Name).Set(float64(ws.Inflight))
			t.clusterWorkerEWMA.With(ws.Name).Set(ws.EWMACellSeconds)
		}
	}
}
