package engine

import (
	"context"
	"sync"
	"testing"
	"time"
)

// stubStore is an in-memory ResultStore recording its traffic.
type stubStore struct {
	mu     sync.Mutex
	m      map[string]any
	loads  int
	stores int
}

func newStubStore() *stubStore { return &stubStore{m: make(map[string]any)} }

func (s *stubStore) Load(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	v, ok := s.m[key]
	return v, ok
}

func (s *stubStore) Store(key string, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stores++
	s.m[key] = val
}

func (s *stubStore) get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func waitDone(t *testing.T, j *Job) any {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return v
}

// TestExecutionWritesThroughToStore pins the L3 write path: a
// successfully executed task is in the store before its waiter observes
// completion.
func TestExecutionWritesThroughToStore(t *testing.T) {
	st := newStubStore()
	e := New(Options{Workers: 1, Store: st})
	defer e.Close()

	j := submit(e, one("k1", func(ctx context.Context, report func(uint64)) (any, error) {
		return "computed", nil
	}))
	if got := waitDone(t, j); got != "computed" {
		t.Fatalf("result = %v", got)
	}
	if v, ok := st.get("k1"); !ok || v != "computed" {
		t.Fatalf("store after execution: %v, %v", v, ok)
	}
}

// TestStoreServesFreshEngine pins the restart scenario: a brand-new
// engine (cold cache) over a warm store serves the result from disk
// with zero executions.
func TestStoreServesFreshEngine(t *testing.T) {
	st := newStubStore()
	st.m["k1"] = "persisted"

	e := New(Options{Workers: 1, Store: st})
	defer e.Close()

	j := submit(e, one("k1", func(ctx context.Context, report func(uint64)) (any, error) {
		t.Error("task ran despite persisted result")
		return nil, nil
	}))
	if got := waitDone(t, j); got != "persisted" {
		t.Fatalf("result = %v", got)
	}
	if d := j.Disposition(); d != DispositionStoreHit {
		t.Fatalf("Disposition = %q; want %q", d, DispositionStoreHit)
	}
	if !j.Status().CacheHit {
		t.Fatalf("store hit must report CacheHit=true in Status")
	}
	stats := e.Stats()
	if stats.StoreHits != 1 || stats.Executed != 0 || stats.CacheHits != 0 {
		t.Fatalf("Stats = %+v; want StoreHits=1 Executed=0 CacheHits=0", stats)
	}

	// The store hit filled the in-memory cache: a second submission is a
	// plain cache hit, no second disk probe needed for correctness.
	j2 := submit(e, one("k1", func(ctx context.Context, report func(uint64)) (any, error) {
		return nil, nil
	}))
	waitDone(t, j2)
	if d := j2.Disposition(); d != DispositionCacheHit {
		t.Fatalf("second submission Disposition = %q; want cache_hit", d)
	}
}

// TestStoreMissExecutesOnce: a miss probes the store once, executes,
// and writes through.
func TestStoreMissExecutesOnce(t *testing.T) {
	st := newStubStore()
	e := New(Options{Workers: 1, Store: st})
	defer e.Close()

	runs := 0
	j := submit(e, one("k", func(ctx context.Context, report func(uint64)) (any, error) {
		runs++
		return 42, nil
	}))
	waitDone(t, j)
	if runs != 1 {
		t.Fatalf("runs = %d", runs)
	}
	if stats := e.Stats(); stats.StoreHits != 0 || stats.Executed != 1 {
		t.Fatalf("Stats = %+v", stats)
	}
}

// TestGroupMembersServedFromStore: a fused group with some members
// persisted runs only the rest, and persists what it computes.
func TestGroupMembersServedFromStore(t *testing.T) {
	st := newStubStore()
	st.m["a"] = "stored-a"

	e := New(Options{Workers: 1, Store: st})
	defer e.Close()

	jobs := e.SubmitGroup(GroupTask{
		Members: []GroupMember{{Key: "a"}, {Key: "b"}},
		Run: func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
			if len(live) != 1 || live[0] != 1 {
				t.Errorf("live = %v; want [1]", live)
			}
			return []any{"computed-b"}, nil
		},
	})
	if got := waitDone(t, jobs[0]); got != "stored-a" {
		t.Fatalf("member a = %v", got)
	}
	if got := waitDone(t, jobs[1]); got != "computed-b" {
		t.Fatalf("member b = %v", got)
	}
	if d := jobs[0].Disposition(); d != DispositionStoreHit {
		t.Fatalf("member a Disposition = %q", d)
	}
	if d := jobs[1].Disposition(); d != DispositionExecuted {
		t.Fatalf("member b Disposition = %q", d)
	}
	if v, ok := st.get("b"); !ok || v != "computed-b" {
		t.Fatalf("member b not written through: %v, %v", v, ok)
	}
	stats := e.Stats()
	if stats.StoreHits != 1 || stats.Executed != 1 {
		t.Fatalf("Stats = %+v; want StoreHits=1 Executed=1", stats)
	}
}

// TestStoreHitRaceWithConcurrentFill: many concurrent submitters of one
// persisted key all resolve to the same result, however the probe races
// with cache fills.
func TestStoreHitRaceWithConcurrentFill(t *testing.T) {
	st := newStubStore()
	st.m["k"] = "v"
	e := New(Options{Workers: 4, Store: st})
	defer e.Close()

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := submit(e, one("k", func(ctx context.Context, report func(uint64)) (any, error) {
				t.Error("task ran despite persisted result")
				return nil, nil
			}))
			if got := waitDone(t, j); got != "v" {
				t.Errorf("result = %v", got)
			}
		}()
	}
	wg.Wait()
	stats := e.Stats()
	if stats.StoreHits+stats.CacheHits+stats.Coalesced != n || stats.Executed != 0 {
		t.Fatalf("Stats = %+v; dispositions must cover all %d submissions with zero executions", stats, n)
	}
}

// TestFailedExecutionNotPersisted: failures never reach the store.
func TestFailedExecutionNotPersisted(t *testing.T) {
	st := newStubStore()
	e := New(Options{Workers: 1, Store: st})
	defer e.Close()

	j := submit(e, one("k", func(ctx context.Context, report func(uint64)) (any, error) {
		return nil, context.DeadlineExceeded
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := j.Wait(ctx); err == nil {
		t.Fatalf("want error")
	}
	if _, ok := st.get("k"); ok {
		t.Fatalf("failed execution persisted")
	}
}

// TestHitsReportNoQueueOrRunTime: a result served from the cache or the
// store did no queueing or running of its own, so its handle reports
// zero QueueWait and Run.
func TestHitsReportNoQueueOrRunTime(t *testing.T) {
	st := newStubStore()
	st.m["stored"] = "persisted"
	e := New(Options{Workers: 1, Store: st})
	defer e.Close()

	waitDone(t, submit(e, value("cached", 1)))
	for key, want := range map[string]string{"cached": DispositionCacheHit, "stored": DispositionStoreHit} {
		j := submit(e, value(key, 2))
		waitDone(t, j)
		s := j.Status()
		if s.Disposition != want {
			t.Fatalf("%s: Disposition = %q, want %q", key, s.Disposition, want)
		}
		if s.QueueWait != 0 || s.Run != 0 {
			t.Errorf("%s: QueueWait = %v, Run = %v; want both zero", key, s.QueueWait, s.Run)
		}
	}
}
