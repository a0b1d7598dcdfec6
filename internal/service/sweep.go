package service

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"jetty/internal/obs"
	"jetty/internal/sim"
	"jetty/internal/sweep"
)

// The job registry. Every job is a sweep: POST /v1/sweeps registers the
// spec it is given, POST /v1/experiments the one-machine sweep its
// request translates to. One map holds both, in one insertion order,
// under one eviction bound; each endpoint family serves only its own
// IDs (exp-NNNNNN and swp-NNNNNN from one sequence).

// job is one submitted sweep in the registry.
type job struct {
	id string
	sw *sweep.Sweep
	// req is the request of a job submitted as an experiment (nil for a
	// sweep); the experiment endpoints render from it.
	req *SubmitRequest
	// feed buffers a sampled experiment's windows for GET .../live.
	feed *liveFeed
}

// experiment reports whether the job was submitted as an experiment.
func (j *job) experiment() bool { return j.req != nil }

// noun names the endpoint family in error messages.
func noun(experiment bool) string {
	if experiment {
		return "experiment"
	}
	return "sweep"
}

// SweepStatus is a sweep's progress snapshot.
type SweepStatus struct {
	ID string `json:"id"`
	sweep.Status
}

// SweepResult is the finished payload: the flattened per-filter metrics
// plus rendered aggregate tables, and — for sampled sweeps — the
// per-cell timelines the spec's retention policy kept.
type SweepResult struct {
	ID        string               `json:"id"`
	Spec      sweep.Spec           `json:"spec"`
	Metrics   []sweep.Metric       `json:"metrics"`
	Timelines []sweep.CellTimeline `json:"timelines,omitempty"`
	Tables    map[string]string    `json:"tables"`
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	// Unknown fields are rejected, exactly as cmd/jettysweep rejects
	// them: a typo'd key would otherwise silently sweep the default —
	// e.g. a dropped "scale" runs the full paper budgets.
	var spec sweep.Spec
	if !decodeJSON(w, r, true, &spec) {
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := s.submit(w, r, spec, nil)
	if j == nil {
		return
	}
	s.tel.sweepSubmitted.Add(1)
	writeJSON(w, http.StatusAccepted, SweepStatus{ID: j.id, Status: j.sw.Status(true)})
}

// submit admits spec for the requesting tenant, starts it, registers it
// and, on a durable daemon, journals it. req is the experiment request
// spec was translated from (nil for a sweep). A refused submission gets
// its error response written here, and submit returns nil.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, spec sweep.Spec, req *SubmitRequest) *job {
	tenant := tenantFrom(r.Context())
	origin := obs.RequestID(r.Context())
	// Admission and registration are atomic under the registry lock, and
	// the trace resolver reads the upload store under the same lock.
	s.mu.Lock()
	// Expand first (cheap, deterministic) so the per-tenant cell quota
	// judges the sweep by its true cell count before anything schedules.
	cells, err := spec.Expand(s.traceLocked)
	if err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, err)
		return nil
	}
	if code, reason, err := s.admitLocked(tenant, len(cells)); err != nil {
		s.mu.Unlock()
		s.tel.admissionRejected.With(tenant, reason).Add(1)
		s.writeRetryError(w, code, tenant, err)
		return nil
	}
	j, err := s.startLocked("", spec, req, cells, origin, tenant)
	s.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil
	}

	if s.store != nil {
		rec := jobJournal{ID: j.id, Kind: jobKindSweep, Tenant: tenant, Origin: origin, Spec: &spec}
		if req != nil {
			rec = jobJournal{ID: j.id, Kind: jobKindExperiment, Tenant: tenant, Origin: origin, Request: req}
		}
		s.persistJob(j, rec)
	}
	return j
}

// startLocked submits spec on the engine — each unit posted to a
// cluster worker in coordinator role, else simulated here — and
// registers the job under id, or under the next exp-/swp-NNNNNN when id
// is "" (restore passes the journaled ID). cells is spec's expansion.
// Caller holds s.mu, so a canceling client never observes a job without
// its cells.
func (s *Server) startLocked(id string, spec sweep.Spec, req *SubmitRequest, cells []sweep.Cell, origin, tenant string) (*job, error) {
	j := &job{req: req}
	sub := sweep.Submission{Origin: origin, Tenant: tenant}
	prefix := "swp"
	if req != nil {
		prefix, sub.Kind = "exp", sim.KindWorkload
		if req.Trace != "" {
			sub.Kind = sim.KindTrace
		}
		if req.Interval > 0 {
			j.feed = newLiveFeed(cells)
			sub.OnWindow = j.feed.publish
		}
	}
	var err error
	if s.cluster != nil {
		if sub.Remote, err = s.cluster.Remote(spec, s.traceLocked, tenant, origin); err != nil {
			return nil, err
		}
	}
	if j.sw, err = sweep.Submit(s.eng, spec, s.traceLocked, sub); err != nil {
		return nil, err
	}
	if id == "" {
		s.seq++
		id = fmt.Sprintf("%s-%06d", prefix, s.seq)
	}
	j.id = id
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictLocked()
	return j, nil
}

// traceLocked resolves a "trace:<digest>" workload entry from the
// upload store. Caller holds s.mu.
func (s *Server) traceLocked(digest string) (sim.TraceInput, error) {
	t, ok := s.traces[digest]
	if !ok {
		return sim.TraceInput{}, errors.New("not uploaded (POST it to /v1/traces first)")
	}
	return t.TraceInput, nil
}

// evictLocked drops the oldest finished jobs and their journal entries
// until the registry is within maxRetained. Unfinished jobs are never
// evicted (the admission cap bounds those).
func (s *Server) evictLocked() {
	if len(s.order) <= s.maxRetained {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.maxRetained
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j.sw.UnfinishedCells() == 0 {
			delete(s.jobs, id)
			j.sw.Cancel() // no-op on finished cells; releases the handles
			if s.store != nil {
				s.store.DeleteJob(id)
			}
			s.tel.evicted.Add(1)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// list returns the registered jobs of one endpoint family, oldest first.
func (s *Server) list(experiments bool) []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*job
	for _, id := range s.order {
		if j := s.jobs[id]; j.experiment() == experiments {
			out = append(out, j)
		}
	}
	return out
}

// lookup returns the job the request's {id} names if it belongs to the
// endpoint family; otherwise it answers 404 and returns nil.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, experiment bool) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil || j.experiment() != experiment {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown %s %q", noun(experiment), id))
		return nil
	}
	return j
}

// result returns a finished job's folded result. While the job is not
// done it answers 409 with the job's status and returns nil.
func (s *Server) result(w http.ResponseWriter, r *http.Request, j *job) *sweep.Result {
	if st := j.sw.Status(false); st.State != "done" {
		var status any = SweepStatus{ID: j.id, Status: st}
		if j.experiment() {
			status = j.experimentStatus()
		}
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":  noun(j.experiment()) + " not finished",
			"status": status,
		})
		return nil
	}
	res, err := j.sw.Wait(r.Context()) // immediate: every cell is done
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return nil
	}
	return res
}

// cancel withdraws and forgets the job the request's {id} names, if it
// belongs to the endpoint family.
func (s *Server) cancel(w http.ResponseWriter, r *http.Request, experiment bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	if j != nil && j.experiment() == experiment {
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	} else {
		j = nil
	}
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown %s %q", noun(experiment), id))
		return
	}
	j.sw.Cancel()
	if s.store != nil {
		s.store.DeleteJob(id) // an explicitly canceled job must not resurrect at boot
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "canceled"})
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	jobs := s.list(false)
	out := make([]SweepStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, SweepStatus{ID: j.id, Status: j.sw.Status(false)})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r, false); j != nil {
		writeJSON(w, http.StatusOK, SweepStatus{ID: j.id, Status: j.sw.Status(true)})
	}
}

func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r, false)
	if j == nil {
		return
	}
	res := s.result(w, r, j)
	if res == nil {
		return
	}
	writeJSON(w, http.StatusOK, SweepResult{
		ID:        j.id,
		Spec:      res.Spec,
		Metrics:   res.Metrics,
		Timelines: res.Timelines,
		Tables:    renderSweepTables(res),
	})
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) { s.cancel(w, r, false) }

// renderSweepTables renders the aggregate views a study usually wants:
// per-filter and per-(workload, filter) summaries as markdown, plus the
// raw per-cell metrics as CSV.
func renderSweepTables(res *sweep.Result) map[string]string {
	byFilter := sweep.GroupBy(res.Metrics, sweep.ByFilter)
	byWF := sweep.GroupBy(res.Metrics, sweep.ByWorkload, sweep.ByFilter)
	var csv strings.Builder
	_ = sweep.WriteMetricsCSV(&csv, res.Metrics)
	return map[string]string{
		"by_filter":          sweep.Markdown("By filter", byFilter, []sweep.Axis{sweep.ByFilter}),
		"by_workload_filter": sweep.Markdown("By workload and filter", byWF, []sweep.Axis{sweep.ByWorkload, sweep.ByFilter}),
		"cells_csv":          csv.String(),
	}
}
