package service

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"jetty/internal/sim"
	"jetty/internal/sweep"
)

// Durable-restart support: when Options.Store is set, every accepted
// submission journals enough of its request to be resubmitted verbatim,
// and New replays the journal at boot. Replayed jobs keep their original
// IDs (a client polling swp-000003 across a restart keeps polling the
// same handle) and recompute only the cells whose results are not
// already in the store — the engine probes the store as an L3 under its
// LRU, so a sweep killed at 60% resumes at 60%, not from scratch.

// Journal job kinds.
const (
	jobKindExperiment = "experiment"
	jobKindSweep      = "sweep"
)

// jobJournal is one accepted submission's durable record: the validated
// request itself plus the identity it was admitted under. Exactly one
// of Request (experiments) and Spec (sweeps) is set, per Kind.
type jobJournal struct {
	ID      string         `json:"id"`
	Kind    string         `json:"kind"` // jobKindExperiment | jobKindSweep
	Tenant  string         `json:"tenant,omitempty"`
	Origin  string         `json:"origin,omitempty"`
	Request *SubmitRequest `json:"request,omitempty"`
	Spec    *sweep.Spec    `json:"spec,omitempty"`
}

// persistJob journals an accepted submission. Persistence failures are
// logged, not surfaced: the job still runs this boot; it just won't
// survive a crash.
func (s *Server) persistJob(j jobJournal) {
	data, err := json.Marshal(j)
	if err == nil {
		err = s.store.PutJob(j.ID, data)
	}
	if err != nil {
		s.tel.log.Warn("job journal persist failed", "id", j.ID, "err", err)
	}
}

// watch retires a journaled job's record once it completes. It polls
// rather than calling Wait: sweep.Sweep.Wait cancels the remaining cells
// on first error, and a watcher must never cancel work. Canceled and
// failed jobs keep their journal entry, so a job interrupted by shutdown
// (its cells die Canceled) is resubmitted at next boot. It sleeps before
// its first check, so even a job that finished before it was journaled
// keeps its entry for one poll: a restart in that window resumes the job
// under its ID, from the stored cells, instead of forgetting the ID.
func (s *Server) watch(j *job) {
	time.Sleep(watchPoll)
	for j.sw.UnfinishedCells() > 0 {
		time.Sleep(watchPoll)
	}
	if j.sw.Status(false).State == "done" {
		s.store.DeleteJob(j.id)
	}
}

// watchPoll is the journal watchers' completion-poll interval: coarse on
// purpose — a journal entry outliving its job by half a second only
// means a crash in that window replays a job whose cells are already on
// disk, which the store tier resolves without recomputation.
const watchPoll = 500 * time.Millisecond

// restore replays the durable state at boot: traces first (journaled
// jobs may replay them), then every journaled job, oldest first so
// restored IDs keep their original order in listings. Damaged or stale
// entries are discarded individually — one torn journal record must not
// take down the boot or the other entries. Called from New before the
// server is reachable, so handler-visible state is consistent by the
// time requests arrive.
func (s *Server) restore() {
	if s.store == nil {
		return
	}
	for _, te := range s.store.Traces() {
		in, err := sim.LoadTrace(te.Meta.Name, te.Data)
		if err != nil || in.Digest != te.Digest {
			// The payload no longer hashes to its filename: discard the
			// entry rather than serve a trace under a digest it isn't.
			s.tel.log.Warn("discarding corrupt stored trace", "digest", te.Digest, "err", err)
			s.store.DeleteTrace(te.Digest)
			continue
		}
		s.mu.Lock()
		if _, ok := s.traces[in.Digest]; !ok {
			s.traces[in.Digest] = storedTrace{in, te.Meta.Tenant}
			s.traceOrder = append(s.traceOrder, in.Digest)
		}
		s.mu.Unlock()
	}

	jobs := s.store.Jobs()
	ids := make([]string, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		// Advance the ID sequence past every journaled ID — discarded
		// ones included: a client may have seen the ID, so a new
		// submission must never reuse it.
		s.noteSeq(id)
		var j jobJournal
		if err := json.Unmarshal(jobs[id], &j); err != nil || j.ID != id {
			s.tel.log.Warn("discarding corrupt job journal", "id", id)
			s.store.DeleteJob(id)
			continue
		}
		s.mu.Lock()
		spec, req, err := j.submission(s.traceLocked)
		var cells []sweep.Cell
		if err == nil {
			cells, err = spec.Expand(s.traceLocked)
		}
		var jb *job
		if err == nil {
			jb, err = s.startLocked(j.ID, spec, req, cells, j.Origin, j.Tenant)
		}
		s.mu.Unlock()
		if err != nil {
			s.tel.log.Warn("journaled job no longer submittable", "id", id, "kind", j.Kind, "err", err)
			s.store.DeleteJob(id)
			continue
		}
		s.tel.log.Info("resumed job from journal", "id", id, "kind", j.Kind, "tenant", j.Tenant)
		go s.watch(jb)
	}
}

// noteSeq advances the ID sequence past a restored job's number so new
// submissions never collide with replayed IDs.
func (s *Server) noteSeq(id string) {
	if i := strings.LastIndexByte(id, '-'); i >= 0 {
		if n, err := strconv.Atoi(id[i+1:]); err == nil && n > s.seq {
			s.seq = n
		}
	}
}

// submission recovers what a journal record submitted: a sweep's spec
// as journaled, or an experiment's request with the sweep it translates
// to. Every other record is stale or damaged.
func (j jobJournal) submission(traces sweep.TraceResolver) (sweep.Spec, *SubmitRequest, error) {
	switch {
	case j.Kind == jobKindSweep && j.Spec != nil:
		return *j.Spec, nil, nil
	case j.Kind == jobKindExperiment && j.Request != nil:
		spec, err := j.Request.sweepSpec(traces)
		return spec, j.Request, err
	}
	return sweep.Spec{}, nil, fmt.Errorf("journal record of kind %q carries no job", j.Kind)
}
