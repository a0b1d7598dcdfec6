package service

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

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
//
// The journal mirrors the registry: an entry is written when a job is
// registered and deleted when it leaves (canceled, evicted, or not
// submittable at boot), so a restart restores exactly the jobs the
// registry held, finished ones included.

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
// survive a crash. The journal mirrors the registry, and the entry is
// written outside the registry lock, so a job that left the registry
// meanwhile (evicted or canceled) has its entry deleted again here.
func (s *Server) persistJob(jb *job, rec jobJournal) {
	data, err := json.Marshal(rec)
	if err == nil {
		err = s.store.PutJob(rec.ID, data)
	}
	if err != nil {
		s.tel.log.Warn("job journal persist failed", "id", rec.ID, "err", err)
	}
	s.mu.Lock()
	if s.jobs[rec.ID] != jb {
		s.store.DeleteJob(rec.ID)
	}
	s.mu.Unlock()
}

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
	// Submission order, across both families: the registry evicts in
	// this order, so a string sort (every exp- before every swp-) would
	// forget the newer job first.
	slices.SortFunc(ids, func(a, b string) int {
		return cmp.Or(cmp.Compare(idSeq(a), idSeq(b)), strings.Compare(a, b))
	})
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
		if err == nil {
			_, err = s.startLocked(j.ID, spec, req, cells, j.Origin, j.Tenant)
		}
		s.mu.Unlock()
		if err != nil {
			s.tel.log.Warn("journaled job no longer submittable", "id", id, "kind", j.Kind, "err", err)
			s.store.DeleteJob(id)
			continue
		}
		s.tel.log.Info("resumed job from journal", "id", id, "kind", j.Kind, "tenant", j.Tenant)
	}
}

// idSeq returns the sequence number of an exp-/swp-NNNNNN job ID (the
// digits after its last '-'), or -1 if there is none.
func idSeq(id string) int {
	n, err := strconv.Atoi(id[strings.LastIndexByte(id, '-')+1:])
	if err != nil {
		return -1
	}
	return n
}

// noteSeq advances the ID sequence past a restored job's number so new
// submissions never collide with replayed IDs.
func (s *Server) noteSeq(id string) { s.seq = max(s.seq, idSeq(id)) }

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
