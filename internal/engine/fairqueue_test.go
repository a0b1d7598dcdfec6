package engine

import (
	"context"
	"sync"
	"testing"
	"time"
)

// qex builds a bare queued execution for a tenant (queue-level tests
// never run these, so a nil Run is fine).
func qex(tenant, key string) *execution {
	ctx, cancel := context.WithCancel(context.Background())
	return newExecution(task{key: key, tenant: tenant}, ctx, cancel)
}

// forTenant labels g with a fair-share tenant.
func forTenant(tenant string, g GroupTask) GroupTask {
	g.Tenant = tenant
	return g
}

// popAll drains the queue and returns the popped keys in order.
func popAll(t *testing.T, q *queue) []string {
	t.Helper()
	var keys []string
	for q.len() > 0 {
		ex, ok := q.pop()
		if !ok {
			t.Fatal("pop reported closed with items remaining")
		}
		keys = append(keys, ex.task.key)
	}
	return keys
}

func TestFairQueueRoundRobinAcrossTenants(t *testing.T) {
	q := newQueue(nil)
	for _, k := range []string{"a1", "a2", "a3", "a4"} {
		q.push(qex("alice", k))
	}
	q.push(qex("bob", "b1"))
	q.push(qex("carol", "c1"))

	got := popAll(t, q)
	// One task per tenant per ring visit: bob's and carol's single tasks
	// drain ahead of alice's backlog even though they arrived last.
	want := []string{"a1", "b1", "c1", "a2", "a3", "a4"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestFairQueuePreservesPerTenantFIFO(t *testing.T) {
	q := newQueue(nil)
	q.push(qex("alice", "a1"))
	q.push(qex("bob", "b1"))
	q.push(qex("alice", "a2"))
	q.push(qex("bob", "b2"))

	seen := map[string][]string{}
	for _, k := range popAll(t, q) {
		seen[string(k[0])] = append(seen[string(k[0])], k)
	}
	if seen["a"][0] != "a1" || seen["a"][1] != "a2" || seen["b"][0] != "b1" || seen["b"][1] != "b2" {
		t.Fatalf("per-tenant order violated: %v", seen)
	}
}

func TestFairQueueWeights(t *testing.T) {
	q := newQueue(map[string]int{"bob": 2})
	for _, k := range []string{"a1", "a2", "a3"} {
		q.push(qex("alice", k))
	}
	for _, k := range []string{"b1", "b2", "b3", "b4"} {
		q.push(qex("bob", k))
	}

	got := popAll(t, q)
	// alice weighs 1, bob 2: each ring rotation serves one alice task and
	// two bob tasks.
	want := []string{"a1", "b1", "b2", "a2", "b3", "b4", "a3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestFairQueueDrainedTenantLosesCredit(t *testing.T) {
	q := newQueue(map[string]int{"bob": 3})
	q.push(qex("bob", "b1"))
	if got := popAll(t, q); len(got) != 1 {
		t.Fatalf("drained %v", got)
	}
	// bob left the ring with 2 unspent credits; on return he must start a
	// fresh visit, not cash in banked credit ahead of alice's turn.
	q.push(qex("alice", "a1"))
	q.push(qex("alice", "a2"))
	q.push(qex("bob", "b2"))
	q.push(qex("bob", "b3"))
	q.push(qex("bob", "b4"))
	q.push(qex("bob", "b5"))
	got := popAll(t, q)
	want := []string{"a1", "b2", "b3", "b4", "a2", "b5"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestFairQueueDepths(t *testing.T) {
	q := newQueue(nil)
	if d := q.depths(); d != nil {
		t.Fatalf("empty queue depths = %v", d)
	}
	q.push(qex("alice", "a1"))
	q.push(qex("alice", "a2"))
	q.push(qex("bob", "b1"))
	d := q.depths()
	if d["alice"] != 2 || d["bob"] != 1 || len(d) != 2 {
		t.Fatalf("depths = %v", d)
	}
	if q.len() != 3 {
		t.Fatalf("len = %d", q.len())
	}
}

func TestFairQueueCloseDrains(t *testing.T) {
	q := newQueue(nil)
	q.push(qex("alice", "a1"))
	q.push(qex("bob", "b1"))
	q.close()
	if _, ok := q.pop(); !ok {
		t.Fatal("pop after close should drain remaining items")
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("second pop should still drain")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("drained closed queue should report !ok")
	}
}

// TestEngineFairShareAcrossTenants proves the scheduling property end to
// end: with one worker occupied, a flooding tenant's backlog does not
// delay a light tenant's single task past one ring rotation.
func TestEngineFairShareAcrossTenants(t *testing.T) {
	var mu sync.Mutex
	var order []string
	e := New(Options{Workers: 1, CacheEntries: -1, OnRetire: func(tr TaskTrace) {
		if tr.Disposition == DispositionExecuted {
			mu.Lock()
			order = append(order, tr.Key)
			mu.Unlock()
		}
	}})
	defer e.Close()

	gate := make(chan struct{})
	task := func(tenant, key string) GroupTask {
		return forTenant(tenant, one(key, func(ctx context.Context, report func(uint64)) (any, error) {
			return key, nil
		}))
	}
	// Occupy the single worker so every later submission queues.
	blocker := submit(e, one("gate", func(ctx context.Context, report func(uint64)) (any, error) {
		<-gate
		return nil, nil
	}))

	var jobs []*Job
	for _, k := range []string{"f1", "f2", "f3", "f4", "f5", "f6"} {
		jobs = append(jobs, submit(e, task("flooder", k)))
	}
	light := submit(e, task("light", "l1"))
	if st := e.Stats(); st.TenantQueues["flooder"] != 6 || st.TenantQueues["light"] != 1 {
		t.Fatalf("tenant queues = %v", st.TenantQueues)
	}
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := light.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	blocker.Cancel()

	mu.Lock()
	defer mu.Unlock()
	floodersBefore, seen := 0, false
	for _, k := range order {
		if k == "l1" {
			seen = true
			break
		}
		if k[0] == 'f' {
			floodersBefore++
		}
	}
	if !seen {
		t.Fatalf("light tenant task never executed: %v", order)
	}
	// Round-robin: at most one flooder task runs between the worker
	// freeing up and the light tenant's turn.
	if floodersBefore > 1 {
		t.Errorf("%d flooder tasks ran before the light tenant's: %v — starved past one rotation", floodersBefore, order)
	}
	if st := light.Status(); st.Tenant != "light" {
		t.Errorf("status tenant = %q", st.Tenant)
	}
}

// TestFairQueueCanceledTasksStillDrain: canceling a queued job does not
// wedge its tenant's FIFO — the worker pops and retires it as canceled,
// and later tenants still get served.
func TestFairQueueCanceledTasksStillDrain(t *testing.T) {
	e := New(Options{Workers: 1, CacheEntries: -1})
	defer e.Close()

	gate := make(chan struct{})
	blocker := submit(e, one("gate", func(ctx context.Context, report func(uint64)) (any, error) {
		<-gate
		return nil, nil
	}))
	doomed := submit(e, forTenant("alice", one("doomed", func(ctx context.Context, report func(uint64)) (any, error) {
		t.Error("canceled task must not run")
		return nil, nil
	})))
	after := submit(e, forTenant("bob", one("after", func(ctx context.Context, report func(uint64)) (any, error) {
		return "ok", nil
	})))
	doomed.Cancel()
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if v, err := after.Wait(ctx); err != nil || v != "ok" {
		t.Fatalf("bob's task after a canceled alice task: %v, %v", v, err)
	}
	if st := doomed.Status(); st.State != Canceled {
		t.Errorf("doomed state = %v", st.State)
	}
	blocker.Cancel()
}
