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

// groupOf builds a GroupTask returning base+i for member i, recording
// how many times (and over which live sets) Run was invoked.
func groupOf(prefix string, n, base int, runs *atomic.Int32, lastLive *[]int) GroupTask {
	members := make([]GroupMember, n)
	for i := range members {
		members[i] = GroupMember{Key: fmt.Sprintf("%s-%d", prefix, i), Total: 10}
	}
	return GroupTask{
		Kind:    "fused",
		Members: members,
		Run: func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
			if runs != nil {
				runs.Add(1)
			}
			if lastLive != nil {
				*lastLive = append([]int(nil), live...)
			}
			report(10)
			out := make([]any, len(live))
			for k, i := range live {
				out[k] = base + i
			}
			return out, nil
		},
	}
}

func TestGroupSubmitAndWait(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	var runs atomic.Int32
	jobs := e.SubmitGroup(groupOf("g1", 4, 100, &runs, nil))
	if len(jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(jobs))
	}
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.(int) != 100+i {
			t.Fatalf("member %d = %v, want %d", i, res, 100+i)
		}
		st := j.Status()
		if st.State != Done || st.Done != 10 || st.Total != 10 {
			t.Errorf("member %d status = %+v", i, st)
		}
		if st.Disposition != DispositionExecuted {
			t.Errorf("member %d disposition = %q", i, st.Disposition)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("group ran %d times, want 1", got)
	}
	st := e.Stats()
	if st.FusedGroups != 1 || st.Submitted != 4 || st.Executed != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGroupFillsCachePerMember(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	var runs atomic.Int32
	for _, j := range e.SubmitGroup(groupOf("gc", 3, 0, &runs, nil)) {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Individual resubmission of each member key must be a cache hit.
	for i := 0; i < 3; i++ {
		j := submit(e, value(fmt.Sprintf("gc-%d", i), -1))
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.(int) != i {
			t.Fatalf("member %d from cache = %v, want %d", i, res, i)
		}
		if !j.Status().CacheHit {
			t.Fatalf("member %d resubmission missed the cache", i)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("group ran %d times, want 1", got)
	}
}

func TestGroupCacheAndCoalesceAtSubmit(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	// Pre-cache member 0 and hold member 1 in flight.
	if _, err := submit(e, value("mix-0", 1000)).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	inflight := submit(e, one("mix-1", func(ctx context.Context, report func(uint64)) (any, error) {
		close(started)
		<-release
		return 1001, nil
	}))
	<-started

	var lastLive []int
	jobs := e.SubmitGroup(groupOf("mix", 4, 0, nil, &lastLive))
	if st := jobs[0].Status(); !st.CacheHit || st.State != Done {
		t.Errorf("member 0 should be a cache hit: %+v", st)
	}
	if d := jobs[1].Disposition(); d != DispositionCoalesced {
		t.Errorf("member 1 disposition = %q, want coalesced", d)
	}
	close(release)

	want := []int{1000, 1001, 2, 3}
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.(int) != want[i] {
			t.Fatalf("member %d = %v, want %d", i, res, want[i])
		}
	}
	if _, err := inflight.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Only members 2 and 3 were owned by the fused run.
	if len(lastLive) != 2 || lastLive[0] != 2 || lastLive[1] != 3 {
		t.Fatalf("live = %v, want [2 3]", lastLive)
	}
}

func TestGroupDuplicateKeysCoalesce(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	var runs atomic.Int32
	g := GroupTask{
		Members: []GroupMember{{Key: "dup"}, {Key: "dup"}, {Key: "dup"}},
		Run: func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
			runs.Add(1)
			out := make([]any, len(live))
			for k := range live {
				out[k] = 7
			}
			return out, nil
		},
	}
	jobs := e.SubmitGroup(g)
	for _, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.(int) != 7 {
			t.Fatalf("dup result = %v", res)
		}
	}
	if jobs[1].Disposition() != DispositionCoalesced || jobs[2].Disposition() != DispositionCoalesced {
		t.Errorf("duplicate members should coalesce onto the first: %q, %q",
			jobs[1].Disposition(), jobs[2].Disposition())
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("group ran %d times, want 1", got)
	}
}

func TestGroupAllSatisfiedWithoutRunning(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	for i := 0; i < 2; i++ {
		if _, err := submit(e, value(fmt.Sprintf("pre-%d", i), i)).Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	g := GroupTask{
		Members: []GroupMember{{Key: "pre-0"}, {Key: "pre-1"}},
		Run: func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
			return nil, errors.New("must not run")
		},
	}
	for i, j := range e.SubmitGroup(g) {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.(int) != i {
			t.Fatalf("member %d = %v", i, res)
		}
	}
	if st := e.Stats(); st.FusedGroups != 0 {
		t.Errorf("fully cached group should not count as a fused run: %+v", st)
	}
}

func TestGroupMemberCancelWhileQueued(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	// Occupy the single worker so the group sits queued.
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := submit(e, one("blocker", func(ctx context.Context, report func(uint64)) (any, error) {
		close(started)
		<-release
		return nil, nil
	}))
	<-started

	var lastLive []int
	jobs := e.SubmitGroup(groupOf("cq", 3, 0, nil, &lastLive))
	jobs[1].Cancel()
	close(release)

	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if i == 1 {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled member err = %v", err)
			}
			if st := j.State(); st != Canceled {
				t.Fatalf("canceled member state = %v", st)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.(int) != i {
			t.Fatalf("member %d = %v, want %d", i, res, i)
		}
	}
	if len(lastLive) != 2 || lastLive[0] != 0 || lastLive[1] != 2 {
		t.Fatalf("live = %v, want [0 2]", lastLive)
	}
	if st := e.Stats(); st.Canceled != 1 || st.Executed != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGroupAllMembersCanceledCancelsRun(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	started := make(chan struct{})
	g := GroupTask{
		Members: []GroupMember{{Key: "ac-0"}, {Key: "ac-1"}},
		Run: func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}
	jobs := e.SubmitGroup(g)
	<-started
	for _, j := range jobs {
		j.Cancel()
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want canceled", err)
		}
	}
	if st := e.Stats(); st.Canceled != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGroupOneMemberCanceledMidRunOthersComplete(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	started := make(chan struct{})
	canceled := make(chan struct{})
	g := GroupTask{
		Members: []GroupMember{{Key: "mr-0"}, {Key: "mr-1"}},
		Run: func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
			close(started)
			<-canceled
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return []any{0, 1}, nil
		},
	}
	jobs := e.SubmitGroup(g)
	<-started
	jobs[0].Cancel()
	close(canceled)

	if _, err := jobs[0].Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled member err = %v", err)
	}
	res, err := jobs[1].Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 1 {
		t.Fatalf("surviving member = %v, want 1", res)
	}
	// The canceled member's result must not be cached; the survivor's must.
	if j := submit(e, value("mr-1", -1)); !j.Status().CacheHit {
		t.Error("surviving member's result missing from cache")
	}
	if j := submit(e, one("mr-0", func(ctx context.Context, report func(uint64)) (any, error) { return 42, nil })); j.Status().CacheHit {
		t.Error("canceled member's result must not be cached")
	}
}

func TestGroupRunError(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	boom := errors.New("boom")
	g := GroupTask{
		Members: []GroupMember{{Key: "err-0"}, {Key: "err-1"}},
		Run: func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
			return nil, boom
		},
	}
	for _, j := range e.SubmitGroup(g) {
		if _, err := j.Wait(context.Background()); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
		if st := j.State(); st != Failed {
			t.Fatalf("state = %v, want failed", st)
		}
	}
	if st := e.Stats(); st.Failed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGroupResultCountMismatch(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	g := GroupTask{
		Members: []GroupMember{{Key: "mm-0"}, {Key: "mm-1"}},
		Run: func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
			return []any{1}, nil // one short
		},
	}
	for _, j := range e.SubmitGroup(g) {
		if _, err := j.Wait(context.Background()); err == nil {
			t.Fatal("want result-count mismatch error")
		}
	}
}

func TestGroupRetireTraces(t *testing.T) {
	var mu sync.Mutex
	var traces []TaskTrace
	four := make(chan struct{}) // closed at the fourth trace
	e := New(Options{Workers: 1, OnRetire: func(tr TaskTrace) {
		mu.Lock()
		traces = append(traces, tr)
		if len(traces) == 4 {
			close(four)
		}
		mu.Unlock()
	}})
	defer e.Close()

	// Pre-cache member 0 so the group sees a mix of dispositions.
	if _, err := submit(e, value("tr-0", 0)).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	jobs := e.SubmitGroup(groupOf("tr", 3, 0, nil, nil))
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Waiters wake before the worker retires the members it ran, so wait
	// for the traces themselves.
	select {
	case <-four:
	case <-time.After(10 * time.Second):
		t.Fatal("fewer than 4 retire traces")
	}

	mu.Lock()
	defer mu.Unlock()
	byKey := map[string][]TaskTrace{}
	for _, tr := range traces {
		byKey[tr.Key] = append(byKey[tr.Key], tr)
	}
	// tr-0: once for the priming group of one, once for the group's cache hit.
	if got := len(byKey["tr-0"]); got != 2 {
		t.Errorf("tr-0 traces = %d, want 2", got)
	}
	for _, key := range []string{"tr-1", "tr-2"} {
		trs := byKey[key]
		if len(trs) != 1 {
			t.Fatalf("%s traces = %d, want exactly 1", key, len(trs))
		}
		tr := trs[0]
		if tr.Kind != "fused" || tr.Disposition != DispositionExecuted || tr.State != Done || tr.Err != nil {
			t.Errorf("%s trace = %+v", key, tr)
		}
	}
}

func TestGroupSubmitAfterClose(t *testing.T) {
	e := New(Options{Workers: 1})
	e.Close()

	for _, j := range e.SubmitGroup(groupOf("closed", 2, 0, nil, nil)) {
		if _, err := j.Wait(context.Background()); !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	}
}

func TestGroupProgressMirroredToMembers(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	step := make(chan uint64)
	reported := make(chan struct{})
	g := GroupTask{
		Members: []GroupMember{{Key: "pg-0", Total: 100}, {Key: "pg-1", Total: 100}},
		Run: func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
			for d := range step {
				report(d)
				reported <- struct{}{}
			}
			return []any{nil, nil}, nil
		},
	}
	jobs := e.SubmitGroup(g)
	var prev uint64
	for _, d := range []uint64{10, 40, 90} {
		step <- d
		<-reported
		for i, j := range jobs {
			st := j.Status()
			if st.Done != d {
				t.Fatalf("member %d done = %d, want %d", i, st.Done, d)
			}
			if st.Done < prev {
				t.Fatalf("member %d progress went backwards: %d < %d", i, st.Done, prev)
			}
		}
		prev = d
	}
	close(step)
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
