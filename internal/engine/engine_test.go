package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// one is a group of one: run computes its single member's result,
// stored under key.
func one(key string, run func(ctx context.Context, report func(uint64)) (any, error)) GroupTask {
	return GroupTask{
		Members: []GroupMember{{Key: key}},
		Run: func(ctx context.Context, _ []int, report func(uint64)) ([]any, error) {
			res, err := run(ctx, report)
			return []any{res}, err
		},
	}
}

// submit schedules g and returns its first member's handle.
func submit(e *Engine, g GroupTask) *Job { return e.SubmitGroup(g)[0] }

// value is a group of one returning v under the given key.
func value(key string, v int) GroupTask {
	return one(key, func(ctx context.Context, report func(uint64)) (any, error) {
		return v, nil
	})
}

func TestSubmitAndWait(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	j := submit(e, value("k1", 42))
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 42 {
		t.Fatalf("result = %v, want 42", res)
	}
	st := j.Status()
	if st.State != Done || st.Done != st.Total {
		t.Errorf("status = %+v", st)
	}
}

func TestWorkersRunInParallel(t *testing.T) {
	const n = 4
	e := New(Options{Workers: n})
	defer e.Close()

	// All n tasks block until all n are running: only possible if the
	// pool really runs them concurrently.
	var running atomic.Int32
	release := make(chan struct{})
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		jobs[i] = submit(e, one(fmt.Sprintf("par-%d", i), func(ctx context.Context, report func(uint64)) (any, error) {
			if running.Add(1) == n {
				close(release)
			}
			select {
			case <-release:
				return nil, nil
			case <-time.After(5 * time.Second):
				return nil, errors.New("pool never reached full concurrency")
			}
		}))
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCacheHit(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	var runs atomic.Int32
	task := one("cached", func(ctx context.Context, report func(uint64)) (any, error) {
		runs.Add(1)
		return "result", nil
	})
	if _, err := submit(e, task).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	j := submit(e, task)
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.(string) != "result" {
		t.Fatalf("cached result = %v", res)
	}
	if !j.Status().CacheHit {
		t.Error("second submission should report CacheHit")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("task ran %d times, want 1", got)
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.Executed != 1 || st.Submitted != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	e := New(Options{Workers: 1, CacheEntries: -1})
	defer e.Close()

	var runs atomic.Int32
	task := one("uncached", func(ctx context.Context, report func(uint64)) (any, error) {
		runs.Add(1)
		return nil, nil
	})
	submit(e, task).Wait(context.Background())
	submit(e, task).Wait(context.Background())
	if got := runs.Load(); got != 2 {
		t.Errorf("task ran %d times, want 2 with caching disabled", got)
	}
}

func TestInflightDeduplication(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	task := one("dedup", func(ctx context.Context, report func(uint64)) (any, error) {
		runs.Add(1)
		close(started)
		<-release
		return 7, nil
	})
	j1 := submit(e, task)
	<-started // the run is in flight
	j2 := submit(e, task)
	close(release)

	for _, j := range []*Job{j1, j2} {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.(int) != 7 {
			t.Fatalf("result = %v", res)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("task ran %d times, want 1", got)
	}
	if st := e.Stats(); st.Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1", st.Coalesced)
	}
}

// blockingTask runs until its context is canceled.
func blockingTask(key string, started chan<- struct{}) GroupTask {
	return one(key, func(ctx context.Context, report func(uint64)) (any, error) {
		if started != nil {
			started <- struct{}{}
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
}

func TestCancelRunningJob(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	started := make(chan struct{}, 1)
	j := submit(e, blockingTask("cancel-me", started))
	<-started
	j.Cancel()
	_, err := j.Wait(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := j.Status(); st.State != Canceled {
		t.Errorf("state = %v, want canceled", st.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	started := make(chan struct{}, 1)
	blocker := submit(e, blockingTask("blocker", started))
	<-started // the only worker is now occupied

	queued := submit(e, value("queued", 1))
	queued.Cancel()
	blocker.Cancel()

	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued err = %v, want context.Canceled", err)
	}
	blocker.Wait(context.Background())
}

func TestSharedExecutionCancelNeedsAllHandles(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	task := one("shared", func(ctx context.Context, report func(uint64)) (any, error) {
		started <- struct{}{}
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	j1 := submit(e, task)
	<-started
	j2 := submit(e, task) // coalesces onto j1's execution

	j1.Cancel() // one of two handles: the run must keep going
	close(release)
	res, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatalf("surviving handle failed: %v", err)
	}
	if res.(string) != "ok" {
		t.Fatalf("result = %v", res)
	}
}

func TestResubmitAfterCancelGetsFreshExecution(t *testing.T) {
	e := New(Options{Workers: 1, CacheEntries: -1})
	defer e.Close()

	// Occupy the worker so the submissions below stay queued.
	started := make(chan struct{}, 1)
	blocker := submit(e, blockingTask("blocker", started))
	<-started

	doomed := submit(e, value("contested", 1))
	doomed.Cancel() // canceled while queued, not yet retired by a worker

	// An innocent submitter of the same key must NOT inherit the
	// cancellation: it gets a fresh execution.
	fresh := submit(e, value("contested", 2))
	blocker.Cancel()
	blocker.Wait(context.Background())

	if _, err := doomed.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("doomed err = %v, want context.Canceled", err)
	}
	res, err := fresh.Wait(context.Background())
	if err != nil {
		t.Fatalf("fresh submission inherited cancellation: %v", err)
	}
	if res.(int) != 2 {
		t.Fatalf("fresh result = %v, want 2", res)
	}
	if st := e.Stats(); st.Coalesced != 0 {
		t.Errorf("Coalesced = %d, want 0 (must not coalesce onto a canceled run)", st.Coalesced)
	}
}

func TestWaitContextExpiry(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	started := make(chan struct{}, 1)
	j := submit(e, blockingTask("slow", started))
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v", err)
	}
	// The job itself must still be alive (Wait must not cancel it).
	if st := j.Status(); st.State != Running {
		t.Errorf("state after abandoned Wait = %v, want running", st.State)
	}
	j.Cancel()
	j.Wait(context.Background())
}

func TestTaskError(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	boom := errors.New("boom")
	j := submit(e, one("failing", func(ctx context.Context, report func(uint64)) (any, error) {
		return nil, boom
	}))
	if _, err := j.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := j.Status(); st.State != Failed || st.Err != "boom" {
		t.Errorf("status = %+v", st)
	}
	// Failures are not cached: a resubmission runs again.
	j2 := submit(e, one("failing", func(ctx context.Context, report func(uint64)) (any, error) {
		return "recovered", nil
	}))
	res, err := j2.Wait(context.Background())
	if err != nil || res.(string) != "recovered" {
		t.Fatalf("resubmission = %v, %v", res, err)
	}
}

func TestProgressReporting(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	half := make(chan struct{})
	release := make(chan struct{})
	g := one("progress", func(ctx context.Context, report func(uint64)) (any, error) {
		report(50)
		close(half)
		<-release
		report(100)
		return nil, nil
	})
	g.Members[0].Total = 100
	j := submit(e, g)
	<-half
	if st := j.Status(); st.State != Running || st.Done != 50 || st.Total != 100 {
		t.Errorf("mid-run status = %+v", st)
	}
	close(release)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != Done || st.Done != st.Total {
		t.Errorf("final status = %+v", st)
	}
}

func TestClose(t *testing.T) {
	e := New(Options{Workers: 1})
	started := make(chan struct{}, 1)
	running := submit(e, blockingTask("running", started))
	<-started
	queued := submit(e, value("queued-at-close", 3))

	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain the pool")
	}

	if _, err := running.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("running job err = %v", err)
	}
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("queued job err = %v", err)
	}
	if _, err := submit(e, value("late", 9)).Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submit err = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestManyConcurrentSubmitters(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()

	// 32 goroutines submitting 16 distinct keys: exercises dedup, cache
	// and the pool under the race detector.
	var wg sync.WaitGroup
	var executed atomic.Int32
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				key := fmt.Sprintf("shared-%d", i)
				j := submit(e, one(key, func(ctx context.Context, report func(uint64)) (any, error) {
					executed.Add(1)
					return key, nil
				}))
				res, err := j.Wait(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if res.(string) != key {
					t.Errorf("got %v, want %s", res, key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := executed.Load(); got != 16 {
		t.Errorf("executed %d distinct runs, want 16 (dedup+cache must absorb the rest)", got)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Queued: "queued", Running: "running", Done: "done",
		Failed: "failed", Canceled: "canceled", State(99): "invalid"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), str)
		}
	}
}
