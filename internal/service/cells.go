package service

import (
	"fmt"
	"net/http"

	"jetty/internal/cluster"
	"jetty/internal/obs"
	"jetty/internal/sweep"
)

// POST /v1/cells is the cluster's worker endpoint: a coordinator ships
// a whole sweep spec plus the expansion indices of one planned unit,
// and the worker runs exactly those cells on its local engine,
// answering synchronously with per-cell results and dispositions. The
// spec travels whole because expansion is deterministic — the worker
// reconstructs the coordinator's cells (seeds, machine configs,
// sampling) bit-identically, and the shared content addresses make the
// engine's cache and in-flight dedup work across processes.
//
// The endpoint is plain HTTP/JSON on the ordinary service surface: it
// runs under the same tenant admission quotas, fair-share scheduling
// and telemetry as every other submission, so a worker daemon is just a
// jettyd.

func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	var req cluster.CellsRequest
	if !decodeJSON(w, r, true, &req) {
		return
	}
	if err := req.Spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Indices) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("no cell indices"))
		return
	}

	tenant := tenantFrom(r.Context())
	s.mu.Lock()
	if code, reason, err := s.admitLocked(tenant, len(req.Indices)); err != nil {
		s.mu.Unlock()
		s.tel.admissionRejected.With(tenant, reason).Add(1)
		s.writeRetryError(w, code, tenant, err)
		return
	}
	sw, err := sweep.Submit(s.eng, req.Spec, s.traceLocked, sweep.Submission{
		Origin: obs.RequestID(r.Context()),
		Tenant: tenant,
		Cells:  req.Indices,
	})
	if err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Registered only while the request runs, so admission sees its
	// load: results go back to the coordinator, the engine cache keeps L1.
	s.seq++
	id := fmt.Sprintf("cells-%06d", s.seq)
	s.cellRuns[id] = sw
	s.mu.Unlock()
	defer func() {
		// Always release the handles: a finished unit's cancel is a
		// no-op, a disconnected coordinator's unit stops computing.
		sw.Cancel()
		s.mu.Lock()
		delete(s.cellRuns, id)
		s.mu.Unlock()
	}()

	// Synchronous by design: the coordinator's dispatch is the waiter,
	// and a dropped connection (coordinator gone, or it hedged the unit
	// elsewhere and timed this one out) cancels via the request context.
	results, err := sw.Results(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	cells := sw.Status(true).Cell
	out := cluster.CellsResponse{Cells: make([]cluster.CellOutcome, len(cells))}
	for k, c := range cells {
		out.Cells[k] = cluster.CellOutcome{
			Index:       c.Index,
			Key:         c.Key,
			Disposition: c.Disposition,
			Result:      results[k],
		}
	}
	writeJSON(w, http.StatusOK, out)
}
