package engine

import "sync"

// queue is the engine's pending-work structure: per-tenant FIFOs drained
// by deficit round-robin. Within one tenant order is strictly FIFO;
// across tenants each ring visit grants a tenant its weight in task
// credits, so a tenant flooding the queue with a giant sweep cannot
// starve another tenant's single experiment — the light tenant's task is
// at the head of its own FIFO and is reached within one ring rotation.
//
// Tenants enter the ring when their first task arrives and leave it when
// their FIFO drains (the deficit resets, so a returning tenant starts a
// fresh round rather than cashing in banked credit). After close, pop
// keeps draining remaining items (so canceled work is still retired by a
// worker) and reports !ok only once empty.
type queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantFIFO // active (non-empty) tenants, by name
	ring    []*tenantFIFO          // round-robin order (arrival order)
	cur     int                    // ring position the next pop serves
	weights map[string]int         // configured tenant weights (missing = 1)
	total   int
	closed  bool
}

// tenantFIFO is one tenant's pending executions plus its deficit
// round-robin credit.
type tenantFIFO struct {
	name    string
	items   []*execution
	deficit int // remaining credit in this ring visit
}

func newQueue(weights map[string]int) *queue {
	q := &queue{tenants: make(map[string]*tenantFIFO), weights: weights}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// weightOf returns a tenant's configured scheduling weight (credits per
// ring visit), at least 1.
func (q *queue) weightOf(tenant string) int {
	if w := q.weights[tenant]; w > 1 {
		return w
	}
	return 1
}

// push appends one execution to its tenant's FIFO, entering the tenant
// into the ring if it was idle. Pushing after close is a programming
// error; the engine never does it (SubmitGroup checks closed first).
func (q *queue) push(ex *execution) {
	tenant := ex.task.tenant
	q.mu.Lock()
	tq := q.tenants[tenant]
	if tq == nil {
		tq = &tenantFIFO{name: tenant}
		q.tenants[tenant] = tq
		q.ring = append(q.ring, tq)
	}
	tq.items = append(tq.items, ex)
	q.total++
	q.mu.Unlock()
	q.cond.Signal()
}

// pop removes the next execution in fair-share order, blocking while the
// queue is open and empty. It returns !ok when the queue is closed and
// drained.
func (q *queue) pop() (*execution, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.total == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.total == 0 {
		return nil, false
	}

	// Ring entries are never empty (drained tenants leave immediately),
	// so the tenant at cur always has work.
	tq := q.ring[q.cur]
	if tq.deficit <= 0 {
		tq.deficit = q.weightOf(tq.name)
	}
	ex := tq.items[0]
	tq.items[0] = nil
	tq.items = tq.items[1:]
	tq.deficit--
	q.total--

	switch {
	case len(tq.items) == 0:
		// Drained: leave the ring; banked credit does not survive idling.
		q.ring = append(q.ring[:q.cur], q.ring[q.cur+1:]...)
		delete(q.tenants, tq.name)
		if len(q.ring) > 0 {
			q.cur %= len(q.ring)
		} else {
			q.cur = 0
		}
	case tq.deficit == 0:
		q.cur = (q.cur + 1) % len(q.ring)
	}
	return ex, true
}

// len reports the number of queued executions (the queue-depth gauge).
func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

// depths snapshots the per-tenant queue lengths (the per-tenant
// saturation gauges).
func (q *queue) depths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.tenants) == 0 {
		return nil
	}
	out := make(map[string]int, len(q.tenants))
	for name, tq := range q.tenants {
		out[name] = len(tq.items)
	}
	return out
}

// close wakes all poppers; the queue drains and then reports empty.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
