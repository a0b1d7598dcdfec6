package engine

import (
	"context"
	"fmt"
	"sync"
)

// Group tasks: one execution covering one or more content-addressed
// member results at once. Every submission is a group — a single
// computation is a group of one — so admission and execution exist
// once. The sweep layer uses multi-member groups to evaluate an entire
// filter axis on a single simulation pass — the filters are independent
// observers of the coherence stream, so one run can produce every
// member cell's result bit-identically (internal/sim owns that
// argument; the engine only provides the scheduling shape).
//
// A group run is one queue slot and one worker occupation, but N
// submissions, N cache fills and N retire traces: every member keeps
// the exact lifecycle a group of one would have had — per-member cache
// hits and in-flight coalescing at submit time, per-member progress,
// disposition, timing breakdown and telemetry at retire time. Later per-member submissions of the same keys are served
// from the cache (or coalesce onto the in-flight group) exactly as if
// the members had run alone.

// GroupMember identifies one member of a group task: its content
// address and progress denominator.
type GroupMember struct {
	// Key is the member's content address: the cache/dedup key its
	// result is stored and coalesced under. Members with equal keys must
	// compute equal results.
	Key string
	// Total is the member's progress denominator (0 = unreported).
	Total uint64
}

// GroupTask is one computation producing one or more member results in
// a single run: the engine's only unit of work.
type GroupTask struct {
	// Kind labels every member for telemetry (per-kind latency
	// histograms, slow-job logs): "workload", "trace", "sweep", ...
	Kind string
	// Origin is the request ID (or other correlation token) of the
	// submitter, carried into each member's Status and retire trace so
	// telemetry ties back to the request that caused the work.
	Origin string
	// Tenant names the submitter for fair-share scheduling: the queue
	// keeps one FIFO per tenant and drains them by weighted deficit
	// round-robin, so no tenant's backlog can starve another's work. The
	// empty string is the default tenant.
	//
	// Kind, Origin and Tenant are not part of any content address:
	// identical members submitted under different labels still share one
	// execution and one cache slot (the result is label-independent by
	// the Key contract), and a coalesced execution keeps its first
	// submitter's labels.
	Tenant string

	// Members are the results the run can produce. The engine may
	// satisfy any subset from its cache or from identical in-flight
	// executions; Run only computes the rest.
	Members []GroupMember

	// Run computes the live members' results: live holds ascending
	// indices into Members, and the returned slice must hold one result
	// per live index, in the same order. report carries fused progress —
	// the engine mirrors it onto every live member, so per-member
	// progress is monotone. Run must honor ctx: return ctx.Err()
	// promptly once canceled.
	Run func(ctx context.Context, live []int, report func(done uint64)) ([]any, error)
}

// groupRun coordinates one queued fused execution and the member
// executions it owns.
type groupRun struct {
	task   GroupTask
	ctx    context.Context
	cancel context.CancelFunc

	// members maps a Members index to its owned execution. Only owned
	// members appear: submissions satisfied by the cache or coalesced
	// onto foreign executions are not part of the run.
	members map[int]*execution

	mu   sync.Mutex
	gone int // owned members whose last handle was canceled (or retired)
}

// noteGone records one owned member leaving (its last handle canceled,
// or the run retiring it); when none remain the group context is
// released, which also cancels a still-running fused pass nobody is
// waiting for anymore.
func (g *groupRun) noteGone() {
	g.mu.Lock()
	g.gone++
	last := g.gone == len(g.members)
	g.mu.Unlock()
	if last {
		g.cancel()
	}
}

// member returns what an execution of member i records: its content
// address and progress denominator, labeled with the group's kind,
// origin and tenant.
func (g *GroupTask) member(i int) task {
	m := g.Members[i]
	return task{key: m.Key, kind: g.Kind, origin: g.Origin, tenant: g.Tenant, total: m.Total}
}

// finished returns a handle on an already-finished execution of t: a
// result served without running (hit is DispositionCacheHit or
// DispositionStoreHit), or a rejection (hit empty, err non-nil).
func finished(t task, res any, err error, hit string) *Job {
	ex := newExecution(t, context.Background(), func() {})
	ex.hit = hit
	ex.finish(res, err)
	return ex.attach()
}

// SubmitGroup schedules a group task and returns one job handle per
// member, in Members order. It is the engine's only admission path.
// Each member is served from the result cache (L1), coalesced onto an
// identical in-flight execution (including an earlier member of this
// same group), served from the persistent store (L3), or owned by the
// group's single fused run.
// Every member counts as one submission, also on a closed engine.
// SubmitGroup never blocks on the work itself.
//
// Cancellation is per member: a member whose handles are all canceled
// is marked canceled when the run retires (the fused pass cannot drop
// an attached member mid-run), and the run itself is canceled once
// every owned member has been canceled.
func (e *Engine) SubmitGroup(g GroupTask) []*Job {
	jobs := make([]*Job, len(g.Members))
	var retires []TaskTrace

	// L3 probe, before admission: collect the member keys the in-memory
	// tiers cannot satisfy, load them from the persistent store with
	// e.mu released (disk I/O must not stall other submitters), and let
	// the admission loop below treat the hits like cache fills. A key
	// that races into the cache or in-flight map between probe and
	// admission is simply served by those tiers instead.
	var fromStore map[string]any
	if e.store != nil {
		var misses []string
		seen := make(map[string]struct{}, len(g.Members))
		e.mu.Lock()
		if !e.closed {
			for _, m := range g.Members {
				if _, dup := seen[m.Key]; dup {
					continue
				}
				seen[m.Key] = struct{}{}
				if _, ok := e.cache.Get(m.Key); ok {
					continue
				}
				if _, ok := e.inflight[m.Key]; ok {
					continue
				}
				misses = append(misses, m.Key)
			}
		}
		e.mu.Unlock()
		for _, key := range misses {
			if res, ok := e.store.Load(key); ok {
				if fromStore == nil {
					fromStore = make(map[string]any)
				}
				fromStore[key] = res
			}
		}
	}

	e.mu.Lock()
	e.stats.Submitted += uint64(len(g.Members))
	if e.closed {
		e.mu.Unlock()
		for i := range g.Members {
			jobs[i] = finished(g.member(i), nil, ErrClosed, "")
		}
		return jobs
	}

	groupCtx, groupCancel := context.WithCancel(e.baseCtx)
	gr := &groupRun{task: g, ctx: groupCtx, cancel: groupCancel, members: make(map[int]*execution)}
	var lead *execution // first owned member: carries the run through the queue

	for i := range g.Members {
		t := g.member(i)
		if res, ok := e.cache.Get(t.key); ok {
			e.stats.CacheHits++
			jobs[i] = finished(t, res, nil, DispositionCacheHit)
			retires = append(retires, TaskTrace{
				Kind: t.kind, Key: t.key, Origin: t.origin, Tenant: t.tenant,
				Disposition: DispositionCacheHit, State: Done,
			})
			continue
		}
		// Coalesce onto an identical in-flight execution — a foreign run,
		// or an earlier member of this very group with the same key (each
		// owned member registers in the in-flight map as it is created,
		// so duplicates fold onto their sibling instead of colliding) —
		// unless that execution is doomed (its last handle canceled it,
		// even if the worker has not retired it yet): an innocent new
		// submitter must not inherit the cancellation, so it gets a fresh
		// execution that replaces the map entry (runGroup retires by
		// identity, not by key). attach makes the doomed-vs-attach
		// decision atomically under the execution's lock.
		if ex, ok := e.inflight[t.key]; ok {
			if j := ex.attach(); j != nil {
				e.stats.Coalesced++
				j.coalesced = true
				jobs[i] = j
				retires = append(retires, TaskTrace{
					Kind: t.kind, Key: t.key, Origin: ex.task.origin, Tenant: ex.task.tenant,
					Disposition: DispositionCoalesced, State: State(ex.state.Load()),
				})
				continue
			}
		}
		// Serve members the L3 probe found on disk: fill the cache so
		// later submissions hit L1, and finish the member without ever
		// joining the fused run.
		if res, ok := fromStore[t.key]; ok {
			e.stats.StoreHits++
			e.cache.Put(t.key, res)
			jobs[i] = finished(t, res, nil, DispositionStoreHit)
			retires = append(retires, TaskTrace{
				Kind: t.kind, Key: t.key, Origin: t.origin, Tenant: t.tenant,
				Disposition: DispositionStoreHit, State: Done,
			})
			continue
		}

		memberCtx, memberCancel := context.WithCancel(groupCtx)
		ex := newExecution(t, memberCtx, nil)
		ex.run = gr
		var gone sync.Once
		ex.cancel = func() {
			memberCancel()
			gone.Do(gr.noteGone)
		}
		gr.members[i] = ex
		e.inflight[t.key] = ex
		jobs[i] = ex.attach()
		if lead == nil {
			lead = ex
		}
	}

	if lead == nil {
		// Every member was satisfied without running: nothing to queue.
		e.mu.Unlock()
		groupCancel()
	} else {
		if len(g.Members) > 1 {
			e.stats.FusedGroups++
		}
		// One queue slot for the whole group, under its tenant.
		e.queue.push(lead)
		e.mu.Unlock()
	}
	for _, tr := range retires {
		e.retire(tr)
	}
	return jobs
}

// memberOrder returns the group's owned member indices, ascending.
func (g *groupRun) memberOrder() []int {
	idxs := make([]int, 0, len(g.members))
	for i := range g.members {
		idxs = append(idxs, i)
	}
	for i := 1; i < len(idxs); i++ { // insertion sort: member counts are small
		for j := i; j > 0 && idxs[j] < idxs[j-1]; j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	return idxs
}

// runGroup executes (or cancels) one fused group run and retires every
// owned member: one worker, one Run call, but per-member finish, cache
// fill, store write-through, stats and retire traces.
func (e *Engine) runGroup(gr *groupRun) {
	idxs := gr.memberOrder()

	var (
		res []any
		err error
	)
	live := make([]int, 0, len(idxs))
	if err = gr.ctx.Err(); err == nil {
		// Members individually canceled while queued drop out of the run;
		// the rest go Running together.
		for _, i := range idxs {
			ex := gr.members[i]
			if ex.ctx.Err() == nil {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			// Every member canceled individually, possibly before the last
			// cancellation's noteGone released the group context: nothing
			// left to compute.
			err = context.Canceled
		}
	}
	if err == nil {
		for _, i := range live {
			ex := gr.members[i]
			ex.markStart()
			ex.state.Store(int32(Running))
		}
		e.running.Add(1)
		report := func(done uint64) {
			for _, i := range live {
				gr.members[i].report(done)
			}
		}
		res, err = gr.task.Run(gr.ctx, live, report)
		e.running.Add(-1)
		if err == nil && len(res) != len(live) {
			err = fmt.Errorf("engine: group run returned %d results for %d live members", len(res), len(live))
		}
	}

	// Distribute: each member gets its own result, terminal state, stats
	// line, cache fill and retire trace — exactly what a group of one
	// would have produced.
	type outcome struct {
		ex  *execution
		res any
		err error
	}
	outs := make([]outcome, 0, len(idxs))
	pos := 0 // cursor into live/res
	e.mu.Lock()
	for _, i := range idxs {
		ex := gr.members[i]
		o := outcome{ex: ex}
		inLive := pos < len(live) && live[pos] == i
		var memberRes any
		if inLive {
			if err == nil {
				memberRes = res[pos]
			}
			pos++
		}
		switch {
		case ex.ctx.Err() != nil && (err != nil || gr.ctx.Err() != nil || !inLive):
			// Individually canceled (or the whole group was): no result.
			o.err = context.Canceled
			e.stats.Canceled++
		case err != nil:
			o.err = err
			e.stats.Executed++
			e.stats.Failed++
		case ex.ctx.Err() != nil:
			// Canceled mid-run: the fused pass still computed the result,
			// but the submitter withdrew — mirror single-member semantics (no
			// cache fill, terminal state Canceled).
			o.err = context.Canceled
			e.stats.Canceled++
		default:
			o.res = memberRes
			e.stats.Executed++
			e.cache.Put(ex.task.key, memberRes)
		}
		if e.inflight[ex.task.key] == ex {
			delete(e.inflight, ex.task.key)
		}
		outs = append(outs, o)
	}
	e.mu.Unlock()

	// Write the computed members through to the persistent tier before
	// any waiter can observe completion: a job reported finished is
	// durably on disk, which is the invariant the kill-and-restart
	// recovery path leans on.
	if e.store != nil {
		for _, o := range outs {
			if o.err == nil {
				e.store.Store(o.ex.task.key, o.res)
			}
		}
	}

	for _, o := range outs {
		o.ex.finish(o.res, o.err)
		// Release the member context (and, via noteGone, eventually the
		// group context): without this, every executed member would leave
		// its cancelCtx registered in baseCtx's children for the engine's
		// lifetime. Must come after finish so a plain failure is not
		// misclassified as canceled.
		o.ex.cancel()
		e.retire(TaskTrace{
			Kind:        o.ex.task.kind,
			Key:         o.ex.task.key,
			Origin:      o.ex.task.origin,
			Tenant:      o.ex.task.tenant,
			Disposition: DispositionExecuted,
			State:       State(o.ex.state.Load()),
			QueueWait:   o.ex.queueWait(),
			Run:         o.ex.runTime(),
			Err:         o.err,
		})
	}
}
