package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"jetty/internal/engine"
	"jetty/internal/sim"
	"jetty/internal/sweep"
)

// DispositionMemoHit marks a cell resolved from the coordinator's L2
// memo without any dispatch (per-cell status only; workers report the
// engine dispositions).
const DispositionMemoHit = "memo_hit"

// attempt is one dispatch of one unit to one worker.
type attempt struct {
	unit int
	w    *worker
	// hedged is set (under the sweep's mutex) when the unit was already
	// requeued because the worker was declared dead while this attempt
	// was in flight. The attempt keeps running — if the lost twin still
	// delivers, its results coalesce by digest — but its own failure
	// must not requeue the unit a second time.
	hedged bool
}

// Sweep is one distributed sweep: cells sharded over the cluster,
// results coalescing by digest. It mirrors sweep.Sweep's observable
// surface (Status/Wait/Cancel/Unfinished) so jettyd serves both from
// the same endpoints.
type Sweep struct {
	co     *Coordinator
	spec   sweep.Spec
	cells  []sweep.Cell
	units  [][]int // sweep.PlanUnits groups: the dispatch granularity
	unitOf []int   // cell position → unit index
	origin string
	tenant string
	traces []sim.TraceInput // referenced trace uploads, by first use

	// keyPos maps a cell digest to every position holding it: one
	// delivery resolves all of them, and a duplicate delivery (a
	// rescheduled cell racing its lost twin) is detected here and
	// coalesced instead of double-counted.
	keyPos map[string][]int

	kick chan struct{} // 1-buffered scheduler wakeup
	done chan struct{} // closed when the sweep reaches a terminal state

	mu           sync.Mutex
	results      []sim.AppResult
	have         []bool
	haveCount    int
	dispo        []string // per position: engine disposition or memo_hit
	workerOf     []string // per position: delivering worker
	pending      []int    // unit indices awaiting dispatch
	unitAttempts []int
	live         map[*attempt]struct{}
	err          error
	canceled     bool
	finished     bool
	result       *sweep.Result
}

// Submit expands the spec, resolves what it can from the L2 memo, and
// starts the scheduler. traces resolves "trace:<digest>" entries from
// the coordinator's own store; referenced traces are pushed to workers
// on demand.
func (co *Coordinator) Submit(spec sweep.Spec, traces sweep.TraceResolver, origin, tenant string) (*Sweep, error) {
	co.mu.Lock()
	closed := co.closed
	co.mu.Unlock()
	if closed {
		return nil, errors.New("cluster: coordinator closed")
	}
	cells, err := spec.Expand(traces)
	if err != nil {
		return nil, err
	}
	s := &Sweep{
		co:     co,
		spec:   spec,
		cells:  cells,
		units:  sweep.PlanUnits(spec, cells),
		origin: origin,
		tenant: tenant,
		keyPos: make(map[string][]int, len(cells)),
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		live:   make(map[*attempt]struct{}),
	}
	s.results = make([]sim.AppResult, len(cells))
	s.have = make([]bool, len(cells))
	s.dispo = make([]string, len(cells))
	s.workerOf = make([]string, len(cells))
	s.unitOf = make([]int, len(cells))
	s.unitAttempts = make([]int, len(s.units))
	for u, unit := range s.units {
		for _, p := range unit {
			s.unitOf[p] = u
		}
	}
	for _, c := range cells {
		s.keyPos[c.Key] = append(s.keyPos[c.Key], c.Index)
	}

	// Collect the referenced traces once: workers re-expand the spec, so
	// every "trace:<digest>" entry must be resolvable there before any
	// unit referencing it dispatches.
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if !strings.HasPrefix(w, sweep.TracePrefix) {
			continue
		}
		ref := strings.TrimPrefix(w, sweep.TracePrefix)
		if seen[ref] {
			continue
		}
		seen[ref] = true
		in, err := traces(ref)
		if err != nil {
			return nil, fmt.Errorf("cluster: trace %q: %w", ref, err)
		}
		s.traces = append(s.traces, in)
	}

	// L2 pass: anything the memo already holds resolves without a
	// dispatch — the "cluster-wide rerun recomputes zero cells" tier.
	memoHits := uint64(0)
	co.mu.Lock()
	for i, c := range cells {
		if s.have[i] {
			continue
		}
		if res, ok := co.memo.Get(c.Key); ok {
			for _, p := range s.keyPos[c.Key] {
				if !s.have[p] {
					s.results[p] = res.Clone()
					s.have[p] = true
					s.haveCount++
					s.dispo[p] = DispositionMemoHit
					memoHits++
				}
			}
		}
	}
	co.counters.MemoHits += memoHits
	co.mu.Unlock()

	// L3 pass: cells the in-memory memo missed are probed in the
	// persistent store — the tier that makes a coordinator restart
	// memo-warm. Disk I/O runs outside co.mu (the sweep is not yet
	// published, so its own fields need no lock); hits warm the memo and
	// count as memo hits, since they resolve exactly like one.
	if co.opts.Store != nil {
		storeHits := uint64(0)
		probed := map[string]bool{}
		for i, c := range cells {
			if s.have[i] || probed[c.Key] {
				continue
			}
			probed[c.Key] = true
			v, ok := co.opts.Store.Load(c.Key)
			if !ok {
				continue
			}
			res, ok := v.(sim.AppResult)
			if !ok {
				continue
			}
			for _, p := range s.keyPos[c.Key] {
				if !s.have[p] {
					s.results[p] = res.Clone()
					s.have[p] = true
					s.haveCount++
					s.dispo[p] = DispositionMemoHit
					storeHits++
				}
			}
			co.mu.Lock()
			co.memo.Put(c.Key, res)
			co.mu.Unlock()
		}
		if storeHits > 0 {
			co.mu.Lock()
			co.counters.MemoHits += storeHits
			co.mu.Unlock()
		}
	}

	for u := range s.units {
		if !s.unitResolvedLocked(u) { // no lock needed pre-publication
			s.pending = append(s.pending, u)
		}
	}

	co.register(s)
	go s.run()
	return s, nil
}

// Spec returns the sweep's spec as submitted.
func (s *Sweep) Spec() sweep.Spec { return s.spec }

// Tenant returns the submitting tenant ("" for the default tenant).
func (s *Sweep) Tenant() string { return s.tenant }

// Cells returns the expanded cells in expansion order.
func (s *Sweep) Cells() []sweep.Cell { return s.cells }

// unitResolvedLocked reports whether every cell of the unit is
// resolved. Callers hold s.mu (or the sweep is not yet published).
func (s *Sweep) unitResolvedLocked(u int) bool {
	for _, p := range s.units[u] {
		if !s.have[p] {
			return false
		}
	}
	return true
}

// unresolvedLocked counts the unit's unresolved cells.
func (s *Sweep) unresolvedLocked(u int) int {
	n := 0
	for _, p := range s.units[u] {
		if !s.have[p] {
			n++
		}
	}
	return n
}

// kickScheduler wakes the scheduler loop (non-blocking).
func (s *Sweep) kickScheduler() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// workerDown hedges: every live attempt on w has its unit requeued
// immediately, without waiting for (or canceling) the attempt itself.
// If the lost twin delivers anyway, the results coalesce by digest and
// count as redundant completions.
func (s *Sweep) workerDown(w *worker) {
	rescheduled := uint64(0)
	s.mu.Lock()
	for a := range s.live {
		if a.w != w || a.hedged {
			continue
		}
		a.hedged = true
		if !s.unitResolvedLocked(a.unit) {
			s.pending = append(s.pending, a.unit)
			rescheduled += uint64(s.unresolvedLocked(a.unit))
		}
	}
	s.mu.Unlock()
	if rescheduled > 0 {
		s.co.mu.Lock()
		s.co.counters.CellsRescheduled += rescheduled
		s.co.mu.Unlock()
		s.co.log.Info("cluster cells rescheduled", "worker", w.client.Name(), "cells", rescheduled)
	}
	s.kickScheduler()
}

// fail records a permanent sweep failure (first one wins).
func (s *Sweep) fail(err error) {
	s.mu.Lock()
	if s.err == nil && !s.finished {
		s.err = err
	}
	s.mu.Unlock()
	s.kickScheduler()
}

// run is the scheduler loop: dispatch pending units to the best
// workers, wait for deliveries, finalize when every cell is resolved.
func (s *Sweep) run() {
	defer s.co.unregister(s)
	for {
		s.mu.Lock()
		if s.err != nil || s.canceled {
			s.finished = true
			s.mu.Unlock()
			close(s.done)
			return
		}
		if s.haveCount == len(s.cells) {
			results := s.results
			s.mu.Unlock()
			// Fold outside the lock (status snapshots keep flowing), then
			// publish. The fold is the same code path the single-process
			// sweep runs, over JSON-exact results — bit-identical output.
			res := sweep.Fold(s.spec, s.cells, results)
			s.mu.Lock()
			s.result = res
			s.finished = true
			s.mu.Unlock()
			close(s.done)
			return
		}
		u := -1
		for len(s.pending) > 0 {
			cand := s.pending[0]
			s.pending = s.pending[1:]
			if !s.unitResolvedLocked(cand) {
				u = cand
				break
			}
		}
		var attempts int
		if u >= 0 {
			attempts = s.unitAttempts[u]
		}
		s.mu.Unlock()

		if u >= 0 {
			if attempts >= s.co.opts.MaxAttempts {
				s.fail(fmt.Errorf("cluster: unit %d failed after %d attempts", u, attempts))
				continue
			}
			if w := s.co.acquire(); w != nil {
				s.startAttempt(u, w)
				continue // keep dispatching while units and workers last
			}
			s.mu.Lock()
			s.pending = append(s.pending, u)
			s.mu.Unlock()
		}

		select {
		case <-s.kick:
		case <-time.After(200 * time.Millisecond):
		case <-s.co.ctx.Done():
			s.fail(errors.New("cluster: coordinator closed"))
		}
	}
}

// startAttempt launches one dispatch goroutine.
func (s *Sweep) startAttempt(u int, w *worker) {
	a := &attempt{unit: u, w: w}
	s.mu.Lock()
	s.unitAttempts[u]++
	n := s.unitAttempts[u]
	s.live[a] = struct{}{}
	s.mu.Unlock()
	s.co.mu.Lock()
	s.co.counters.CellsDispatched += uint64(len(s.units[u]))
	s.co.mu.Unlock()
	go s.runAttempt(a, n)
}

// runAttempt dispatches the unit, classifies the outcome, and wakes the
// scheduler. Error taxonomy: transport failure (or an over-long reply)
// condemns the worker (mark dead, hedge); 5xx/429 condemns the moment
// (requeue with backoff, worker stays alive); any other 4xx condemns
// the request (permanent sweep failure).
func (s *Sweep) runAttempt(a *attempt, attemptNo int) {
	ctx, cancel := context.WithTimeout(s.co.ctx, s.co.opts.RequestTimeout)
	defer cancel()

	indices := s.units[a.unit]
	start := time.Now()
	err := s.co.ensureTraces(ctx, a.w, s.tenant, s.traces)
	var resp CellsResponse
	if err == nil {
		resp, err = a.w.client.RunCells(ctx, s.tenant, CellsRequest{Spec: s.spec, Indices: indices},
			replyBound(s.cells, indices, s.spec.Interval))
	}

	if err == nil {
		perCell := time.Since(start) / time.Duration(len(indices))
		s.co.release(a.w, true, perCell)
		s.deliver(a, resp)
		s.kickScheduler()
		return
	}

	s.co.release(a.w, false, 0)
	var se *StatusError
	switch {
	case errors.As(err, &se) && se.Permanent():
		s.removeAttempt(a, false)
		s.fail(fmt.Errorf("cluster: worker %s rejected unit %d: %w", a.w.client.Name(), a.unit, err))
	case errors.As(err, &se):
		// Transient (overload, draining, quota pressure): back off, then
		// requeue — the scheduler may well pick a different worker.
		backoff := s.co.opts.RetryBackoff << (attemptNo - 1)
		if backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
		select {
		case <-time.After(backoff):
		case <-s.co.ctx.Done():
		}
		s.removeAttempt(a, true)
	default:
		// Transport failure, or a reply past the unit's replyBound,
		// which no honest worker sends: the worker is gone or broken.
		// markDead hedges every live attempt on it — including this one —
		// so requeue here only if that pass didn't (the worker was
		// already dead).
		s.co.markDead(a.w, err)
		s.removeAttempt(a, true)
	}
	s.kickScheduler()
}

// removeAttempt drops a finished attempt, optionally requeueing its
// unit (skipped when a workerDown hedge already did).
func (s *Sweep) removeAttempt(a *attempt, requeue bool) {
	s.mu.Lock()
	delete(s.live, a)
	if requeue && !a.hedged && !s.unitResolvedLocked(a.unit) {
		s.pending = append(s.pending, a.unit)
	}
	s.mu.Unlock()
}

// deliver resolves the attempt's outcomes. Resolution is by digest:
// the first delivery of a key fills every position holding it; a later
// delivery of the same key (the lost twin of a rescheduled cell) is
// counted redundant and dropped. Fresh results feed the L2 memo.
func (s *Sweep) deliver(a *attempt, resp CellsResponse) {
	type memoFill struct {
		key string
		res sim.AppResult
	}
	var fills []memoFill
	var redundant, computed, l1hits uint64

	s.mu.Lock()
	delete(s.live, a)
	if s.finished {
		s.mu.Unlock()
		return
	}
	for _, oc := range resp.Cells {
		positions := s.keyPos[oc.Key]
		if len(positions) == 0 {
			continue // unknown key: not ours, drop
		}
		if s.have[positions[0]] {
			redundant++
			continue
		}
		for i, p := range positions {
			res := oc.Result
			if i > 0 {
				res = oc.Result.Clone()
			}
			s.results[p] = res
			s.have[p] = true
			s.haveCount++
			s.dispo[p] = oc.Disposition
			s.workerOf[p] = a.w.client.Name()
		}
		switch oc.Disposition {
		case engine.DispositionExecuted:
			computed++
		default:
			l1hits++
		}
		fills = append(fills, memoFill{key: oc.Key, res: oc.Result})
	}
	s.mu.Unlock()

	s.co.mu.Lock()
	s.co.counters.RedundantCompletions += redundant
	s.co.counters.CellsComputed += computed
	s.co.counters.WorkerCacheHits += l1hits
	for _, f := range fills {
		s.co.memo.Put(f.key, f.res)
	}
	s.co.mu.Unlock()

	// Write delivered results through to the persistent store (disk I/O
	// outside co.mu), so the memo they just filled survives a restart.
	if s.co.opts.Store != nil {
		for _, f := range fills {
			s.co.opts.Store.Store(f.key, f.res)
		}
	}
}

// Status snapshots the sweep, sweep.Status-shaped. detailed adds the
// per-cell table and — while the sweep is still running — the partial
// per-filter aggregates folded from the cells resolved so far.
func (s *Sweep) Status(detailed bool) sweep.Status {
	s.mu.Lock()
	out := sweep.Status{Name: s.spec.Name, Tenant: s.tenant, Cells: len(s.cells)}
	running := make(map[int]bool, len(s.live))
	for a := range s.live {
		running[a.unit] = true
	}
	var doneCells []sweep.Cell
	var doneResults []sim.AppResult
	for i, c := range s.cells {
		total := c.Total()
		out.Total += total
		state := engine.Queued.String()
		switch {
		case s.have[i]:
			state = engine.Done.String()
			out.Done += total
			out.Finished++
			if s.dispo[i] != engine.DispositionExecuted {
				out.CacheHits++
			}
			if detailed && !s.finished {
				doneCells = append(doneCells, c)
				doneResults = append(doneResults, s.results[i])
			}
		case running[s.unitOf[i]]:
			state = engine.Running.String()
		}
		if detailed {
			var cellDone uint64
			if s.have[i] {
				cellDone = total
			}
			out.Cell = append(out.Cell, sweep.CellStatus{
				Index:       c.Index,
				Workload:    c.Workload,
				Machine:     c.Machine,
				Repeat:      c.Repeat,
				Key:         c.Key,
				State:       state,
				Done:        cellDone,
				Total:       total,
				CacheHit:    s.have[i] && s.dispo[i] != engine.DispositionExecuted,
				Disposition: s.dispo[i],
				Origin:      s.origin,
				Tenant:      s.tenant,
			})
		}
	}
	switch {
	case s.err != nil:
		out.State = "failed"
	case s.canceled:
		out.State = "canceled"
	case s.haveCount == len(s.cells):
		out.State = "done"
	case len(s.live) > 0 || s.haveCount > 0:
		out.State = "running"
	default:
		out.State = "queued"
	}
	if out.Total > 0 {
		out.Fraction = float64(out.Done) / float64(out.Total)
	}
	if out.State == "done" {
		out.Fraction = 1
	}
	s.mu.Unlock()

	if len(doneCells) > 0 && len(doneCells) < len(s.cells) {
		out.PartialMetrics = sweep.Fold(s.spec, doneCells, doneResults).Metrics
	}
	return out
}

// Unfinished reports whether the sweep is still scheduling or waiting
// on deliveries.
func (s *Sweep) Unfinished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.finished
}

// UnfinishedCells counts cells not yet resolved.
func (s *Sweep) UnfinishedCells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return 0
	}
	return len(s.cells) - s.haveCount
}

// Cancel stops the sweep. In-flight dispatches are left to finish on
// their workers (their results feed the memo via deliver's early-return
// guard being off only pre-finish; post-cancel deliveries are dropped).
func (s *Sweep) Cancel() {
	s.mu.Lock()
	s.canceled = true
	s.mu.Unlock()
	s.kickScheduler()
}

// Wait blocks until the sweep reaches a terminal state (or ctx
// expires) and returns the folded result.
func (s *Sweep) Wait(ctx context.Context) (*sweep.Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	if s.result == nil {
		return nil, errors.New("cluster: sweep canceled")
	}
	return s.result, nil
}
