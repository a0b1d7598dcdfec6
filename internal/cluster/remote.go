package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"jetty/internal/engine"
	"jetty/internal/sim"
	"jetty/internal/sweep"
)

// errClosed fails the unit runs of a closed coordinator.
var errClosed = errors.New("cluster: coordinator closed")

// Remote returns the unit runner that dispatches spec's units to the
// workers: set it as sweep.Submission.Remote and the sweep runs on the
// caller's engine like any other, only each unit's run posts the unit
// to a worker. traces resolves the spec's "trace:<digest>" entries;
// they are resolved once, here, and pushed to each worker on demand.
// tenant and origin are the submission's: every dispatch runs under
// the tenant and carries an "<origin>.a<n>" request ID. A unit runs
// for the submission that created its execution, so these are the
// execution owner's identity.
func (co *Coordinator) Remote(spec sweep.Spec, traces sweep.TraceResolver, tenant, origin string) (func(context.Context, []sweep.Cell) ([]sim.AppResult, error), error) {
	if co.ctx.Err() != nil {
		return nil, errClosed
	}
	// Workers re-expand the spec, so every trace it references must be
	// resolvable there before a unit referencing it dispatches.
	var refs []sim.TraceInput
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		ref, ok := strings.CutPrefix(w, sweep.TracePrefix)
		if !ok || seen[ref] {
			continue
		}
		seen[ref] = true
		in, err := traces(ref)
		if err != nil {
			return nil, fmt.Errorf("cluster: trace %q: %w", ref, err)
		}
		refs = append(refs, in)
	}
	return func(ctx context.Context, unit []sweep.Cell) ([]sim.AppResult, error) {
		ctx, cancel := context.WithCancel(ctx)
		indices := make([]int, len(unit))
		for k, c := range unit {
			indices[k] = c.Index
		}
		r := &unitRun{
			co:     co,
			ctx:    ctx,
			unit:   unit,
			req:    CellsRequest{Spec: spec, Indices: indices},
			bound:  replyBound(unit, spec.Interval),
			tenant: tenant,
			origin: origin,
			traces: refs,
			events: make(chan attemptEvent, 2*maxAttempts),
		}
		defer r.attempts.Wait()
		defer cancel() // stops the attempts that lost
		return r.run()
	}, nil
}

// unitRun is one unit's dispatch: attempts on workers until one
// succeeds, the unit fails, or ctx ends.
type unitRun struct {
	co     *Coordinator
	ctx    context.Context // canceled when the run returns
	unit   []sweep.Cell
	req    CellsRequest
	bound  int64 // replyBound of the unit
	tenant string
	origin string
	traces []sim.TraceInput
	// events carries each attempt's end and each hedge. Every attempt
	// sends at most one of each, and a run starts at most maxAttempts,
	// so sends never block.
	events   chan attemptEvent
	attempts sync.WaitGroup // dispatch goroutines
	won      bool           // an attempt succeeded; guarded by co.mu
}

// attempt is one dispatch of a unit to a worker.
type attempt struct {
	run *unitRun
	n   int // 1-based attempt number within the run
	w   *worker
	// hedged is set, under the coordinator's mutex, when the worker was
	// declared dead while the attempt was in flight and the run was told
	// to start another. The attempt keeps running; its own failure must
	// not start a further one.
	hedged bool
}

// attemptEvent is an attempt's end, or (hedge) its worker's death.
type attemptEvent struct {
	a        *attempt
	hedge    bool
	replaced bool // the ended attempt was hedged: its successor was asked for
	results  []sim.AppResult
	err      error
}

// run starts attempts and classifies their ends. Error taxonomy: a
// transport failure (or a reply past the unit's bound or missing a
// cell) condemns the worker — the attempt marks it dead, which hedges
// the unit; a 5xx/429 condemns the moment — retry after a capped
// exponential backoff; any other 4xx condemns the request — the unit
// fails. The first success wins.
func (r *unitRun) run() ([]sim.AppResult, error) {
	co := r.co
	var (
		started, live int
		want          = 1 // attempts to start
		retry         <-chan time.Time
		lastErr       error
	)
	for {
		var freed <-chan struct{}
		for want > 0 && retry == nil && started < maxAttempts {
			a := &attempt{run: r, n: started + 1}
			ch, ok := co.acquire(a)
			if !ok {
				freed = ch
				break
			}
			started++
			live++
			want--
			r.attempts.Add(1)
			go r.dispatch(a)
		}
		if live == 0 && retry == nil && started >= maxAttempts {
			return nil, fmt.Errorf("cluster: unit failed after %d attempts: %w", started, lastErr)
		}
		select {
		case ev := <-r.events:
			if ev.hedge {
				want++
				continue
			}
			live--
			if ev.err == nil {
				return ev.results, nil
			}
			lastErr = ev.err
			var se *StatusError
			switch {
			case errors.As(ev.err, &se) && se.Permanent():
				return nil, fmt.Errorf("cluster: worker %s rejected the unit: %w", ev.a.w.client.Name(), ev.err)
			case ev.replaced:
				// Its worker died mid-attempt (a transport failure marks
				// it dead itself): the hedge asked for the next attempt.
			case errors.As(ev.err, &se):
				// Overload, draining or quota pressure: back off, then
				// try again, quite possibly on another worker.
				backoff := co.opts.RetryBackoff << (ev.a.n - 1)
				if backoff > maxRetryBackoff || backoff <= 0 {
					backoff = maxRetryBackoff
				}
				retry = time.After(backoff)
			default:
				want++
			}
		case <-retry:
			retry = nil
			want++
		case <-freed:
		case <-r.ctx.Done():
			return nil, r.ctx.Err()
		case <-co.ctx.Done():
			return nil, errClosed
		}
	}
}

// dispatch runs attempt a: it pushes the unit's traces, posts the unit
// and matches the reply to the unit's cells, then reports to the run.
func (r *unitRun) dispatch(a *attempt) {
	defer r.attempts.Done()
	co := r.co
	ctx, cancel := context.WithTimeout(r.ctx, co.opts.RequestTimeout)
	defer cancel()
	id := requestID(r.origin, a.n)
	start := time.Now()
	err := co.ensureTraces(ctx, a.w, r.tenant, id, r.traces)
	var results []sim.AppResult
	var resp CellsResponse
	if err == nil {
		resp, err = a.w.client.RunCells(ctx, r.tenant, id, r.req, r.bound)
	}
	if err == nil {
		results, err = r.match(resp)
	}
	if err != nil && r.ctx.Err() != nil {
		co.release(a, false, 0) // another attempt won, or the run ended
		return
	}
	var se *StatusError
	if err != nil && !errors.As(err, &se) {
		// The worker is gone or broken: no honest worker drops the
		// connection, overruns the bound or leaves a cell out.
		co.markDead(a.w, err)
	}
	perCell := time.Duration(0)
	if err == nil {
		perCell = max(time.Since(start)/time.Duration(len(r.unit)), 1)
	}
	replaced := co.release(a, err != nil, perCell)
	if err == nil {
		r.settle(resp)
	}
	r.events <- attemptEvent{a: a, replaced: replaced, results: results, err: err}
}

// match orders a reply's results as the unit's cells, by digest.
func (r *unitRun) match(resp CellsResponse) ([]sim.AppResult, error) {
	byKey := make(map[string]*CellOutcome, len(resp.Cells))
	for i := range resp.Cells {
		byKey[resp.Cells[i].Key] = &resp.Cells[i]
	}
	out := make([]sim.AppResult, len(r.unit))
	for k, c := range r.unit {
		oc, ok := byKey[c.Key]
		if !ok {
			return nil, fmt.Errorf("cluster: reply lacks cell %d", c.Index)
		}
		out[k] = oc.Result
	}
	return out, nil
}

// settle counts a successful reply: the first one's cells as computed
// or worker cache hits by the worker's dispositions, any later one's as
// redundant completions.
func (r *unitRun) settle(resp CellsResponse) {
	co := r.co
	co.mu.Lock()
	defer co.mu.Unlock()
	if r.won {
		co.counters.RedundantCompletions += uint64(len(r.unit))
		return
	}
	r.won = true
	for _, oc := range resp.Cells {
		if oc.Disposition == engine.DispositionExecuted {
			co.counters.CellsComputed++
		} else {
			co.counters.WorkerCacheHits++
		}
	}
}

// requestID names attempt n of a unit submitted under origin: the
// origin, cut so the whole ID stays within a worker's request-ID bound,
// plus ".a<n>". Empty (the worker makes up its own) without an origin.
func requestID(origin string, n int) string {
	if origin == "" {
		return ""
	}
	suffix := ".a" + strconv.Itoa(n)
	if len(origin) > maxRequestID-len(suffix) {
		origin = origin[:maxRequestID-len(suffix)]
	}
	return origin + suffix
}
