package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"jetty/internal/jetty"
	"jetty/internal/smp"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// memoTestConfig is the paper machine with one filter of every family.
func memoTestConfig() smp.Config {
	return smp.PaperConfig(4).WithFilters(
		jetty.MustParse("EJ-32x4"),
		jetty.MustParse("IJ-10x4x7"),
		jetty.MustParse("HJ(IJ-9x4x7,EJ-32x4)"),
	)
}

// runMemo runs a generator spec against memo m.
func runMemo(t *testing.T, m *streamMemo, sp workload.Spec, cfg smp.Config, opt SampleOptions) AppResult {
	t.Helper()
	res, err := run(context.Background(), Input{Spec: sp}, cfg, Plan{Sample: opt}, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// runAppSampled is RunApp with a sampler attached: the memo-free
// reference for a sampled run.
func runAppSampled(t *testing.T, sp workload.Spec, cfg smp.Config, opt SampleOptions) AppResult {
	t.Helper()
	sys := smp.New(cfg)
	defer sys.Close()
	sm, err := opt.newSampler(cfg, nil, sp.Accesses)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetSampler(sm)
	stepRecords(sys, trace.NewRoundRobin(sp.Source(cfg.CPUs)), sp.Accesses)
	res, err := finishRun(sys, sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wantCounts checks a memo's hit and miss counters.
func wantCounts(t *testing.T, label string, m *streamMemo, hits, misses uint64) {
	t.Helper()
	if m.hits != hits || m.misses != misses {
		t.Fatalf("%s: %d hits, %d misses; want %d, %d", label, m.hits, m.misses, hits, misses)
	}
}

// TestStreamMemoMatchesGeneration pins the memoized, batched path to
// the memo-free reference RunApp, bit for bit: on every library
// spec a miss, a hit and a shorter run; a prefix hit and a
// longer-than-memo miss, all at lengths that are not a multiple of the
// CPU count; a phased scenario, whose key keeps its length; and a
// sampled hit.
func TestStreamMemoMatchesGeneration(t *testing.T) {
	cfg := memoTestConfig()
	check := func(label string, got, want AppResult) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memoized path diverged from RunApp", label)
		}
	}
	ref := func(sp workload.Spec) AppResult {
		t.Helper()
		res, err := RunApp(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	m := newStreamMemo(streamBudget)
	var hits, misses uint64
	for _, sp := range workload.Library() {
		sp.Accesses = 20_001
		want := ref(sp)
		check(sp.Name+" miss", runMemo(t, m, sp, cfg, SampleOptions{}), want)
		misses++
		wantCounts(t, sp.Name, m, hits, misses)
		check(sp.Name+" hit", runMemo(t, m, sp, cfg, SampleOptions{}), want)
		hits++
		wantCounts(t, sp.Name, m, hits, misses)
		// A shorter run is a prefix hit, except for a phased spec,
		// whose phases move with its length.
		sp.Accesses = 13_003
		check(sp.Name+" shorter", runMemo(t, m, sp, cfg, SampleOptions{}), ref(sp))
		if len(sp.Phases) > 0 {
			misses++
		} else {
			hits++
		}
		wantCounts(t, sp.Name+" shorter", m, hits, misses)
	}

	sp, err := workload.Lookup("Lu")
	if err != nil {
		t.Fatal(err)
	}
	sp.Accesses = 15_003
	check("prefix hit", runMemo(t, m, sp, cfg, SampleOptions{}), ref(sp))
	hits++
	wantCounts(t, "prefix", m, hits, misses)

	sp.Accesses = 24_005
	check("longer miss", runMemo(t, m, sp, cfg, SampleOptions{}), ref(sp))
	misses++
	wantCounts(t, "longer", m, hits, misses)
	sp.Accesses = 24_004
	check("prefix of the longer stream", runMemo(t, m, sp, cfg, SampleOptions{}), ref(sp))
	hits++
	wantCounts(t, "prefix of longer", m, hits, misses)

	opt := SampleOptions{Interval: 4096}
	sampled := runMemo(t, m, sp, cfg, opt)
	hits++
	wantCounts(t, "sampled", m, hits, misses)
	check("sampled hit", sampled, runAppSampled(t, sp, cfg, opt))
	if sampled.Timeline == nil || len(sampled.Timeline.Windows) < 5 {
		t.Fatal("the sampled run kept no timeline")
	}

	ph := workload.PhasedWebServer()
	for _, n := range []uint64{30_002, 25_001} {
		ph.Accesses = n
		check(fmt.Sprintf("phased %d miss", n), runMemo(t, m, ph, cfg, SampleOptions{}), ref(ph))
		misses++
		wantCounts(t, "phased", m, hits, misses)
		check(fmt.Sprintf("phased %d hit", n), runMemo(t, m, ph, cfg, SampleOptions{}), ref(ph))
		hits++
		wantCounts(t, "phased", m, hits, misses)
	}
}

// TestStreamKey pins what names a stream: a stationary spec's length is
// not part of it, a phased spec's is, and so is the CPU count.
func TestStreamKey(t *testing.T) {
	sp, err := workload.Lookup("Lu")
	if err != nil {
		t.Fatal(err)
	}
	if streamKey(sp, 4) != streamKey(sp.Scale(0.1), 4) {
		t.Error("a stationary spec's key depends on its length")
	}
	if streamKey(sp, 4) == streamKey(sp, 8) {
		t.Error("the key ignores the CPU count")
	}
	seeded := sp
	seeded.Seed++
	if streamKey(sp, 4) == streamKey(seeded, 4) {
		t.Error("the key ignores the seed")
	}
	ph := workload.PhasedWebServer()
	if streamKey(ph, 4) == streamKey(ph.Scale(0.1), 4) {
		t.Error("a phased spec's key ignores its length")
	}
}

// TestStreamMemoConcurrentRuns runs one spec at mixed lengths from
// several goroutines against one memo: every result must equal RunApp,
// whichever run generated, stored or replaced the stream. Run it under
// -race.
func TestStreamMemoConcurrentRuns(t *testing.T) {
	cfg := memoTestConfig()
	sp, err := workload.Lookup("Ocean")
	if err != nil {
		t.Fatal(err)
	}
	lengths := []uint64{9_001, 20_000, 14_003, 20_000, 26_002, 9_001, 26_002, 17_000}
	want := map[uint64]AppResult{}
	for _, n := range lengths {
		sp.Accesses = n
		if want[n], err = RunApp(sp, cfg); err != nil {
			t.Fatal(err)
		}
	}
	m := newStreamMemo(streamBudget)
	var wg sync.WaitGroup
	for _, n := range lengths {
		sp.Accesses = n
		wg.Add(1)
		go func(sp workload.Spec) {
			defer wg.Done()
			res, err := run(context.Background(), Input{Spec: sp}, cfg, Plan{}, nil, m)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(res[0], want[sp.Accesses]) {
				t.Errorf("length %d: concurrent memoized run diverged from RunApp", sp.Accesses)
			}
		}(sp)
	}
	wg.Wait()
	if got := m.hits + m.misses; got != uint64(len(lengths)) {
		t.Errorf("%d lookups for %d runs", got, len(lengths))
	}
	if s, ok := m.streams.Get(streamKey(sp, cfg.CPUs)); !ok || len(s) != 26_002 {
		t.Errorf("memo holds %d records (present %v), want the longest run's 26002", len(s), ok)
	}
}

// TestStreamMemoBudget pins the byte budget: storing past it evicts the
// least recently used stream, and a stream longer than the whole budget
// is stepped but never stored.
func TestStreamMemoBudget(t *testing.T) {
	cfg := memoTestConfig()
	const n = 10_000
	m := newStreamMemo(recBytes * (2*n + n/2)) // two streams of n records fit, three do not
	specs := make([]workload.Spec, 3)
	for i := range specs {
		sp, err := workload.Lookup("Barnes")
		if err != nil {
			t.Fatal(err)
		}
		sp.Seed += int64(i)
		sp.Accesses = n
		specs[i] = sp
		runMemo(t, m, sp, cfg, SampleOptions{})
		if w := m.streams.Weight(); w > m.budget {
			t.Fatalf("memo holds %d bytes over its %d-byte budget", w, m.budget)
		}
	}
	if m.streams.Len() != 2 || m.streams.Weight() != 2*recBytes*n {
		t.Fatalf("memo holds %d streams in %d bytes, want 2 in %d", m.streams.Len(), m.streams.Weight(), 2*recBytes*n)
	}
	if _, ok := m.streams.Get(streamKey(specs[0], cfg.CPUs)); ok {
		t.Error("the least recently used stream survived eviction")
	}

	huge := specs[2]
	huge.Seed += 100
	huge.Accesses = 3 * n
	want, err := RunApp(huge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runMemo(t, m, huge, cfg, SampleOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatal("an over-budget run diverged from RunApp")
	}
	if _, ok := m.streams.Get(streamKey(huge, cfg.CPUs)); ok || m.streams.Len() != 2 {
		t.Errorf("an over-budget stream was stored or evicted others (%d streams)", m.streams.Len())
	}
}

// TestCanceledMissStoresNothing cancels a miss after its first batch:
// only a complete pass may be memoized, so the next run misses again.
func TestCanceledMissStoresNothing(t *testing.T) {
	cfg := memoTestConfig()
	sp := quickSpec(t)
	sp.Accesses = 3 * batchRecords
	m := newStreamMemo(streamBudget)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := run(ctx, Input{Spec: sp}, cfg, Plan{}, func(uint64) { cancel() }, m)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m.streams.Len() != 0 {
		t.Fatal("a canceled miss stored its partial stream")
	}
	runMemo(t, m, sp, cfg, SampleOptions{})
	wantCounts(t, "after the canceled miss", m, 0, 2)
	if m.streams.Len() != 1 {
		t.Fatal("a complete miss stored nothing")
	}
	if len(m.recording) != 0 {
		t.Errorf("%d recordings left open", len(m.recording))
	}
}

// TestStreamMemoRecordsOnce pins who records a missed stream: the first
// miss of a key, then only a miss of a longer stream while that one is
// in flight, and never a stream over the budget. Finishing a failed
// recording stores nothing and lets the next miss record again.
func TestStreamMemoRecordsOnce(t *testing.T) {
	const n = 1000
	m := newStreamMemo(recBytes * 4 * n)
	steps := []struct {
		label  string
		n      uint64
		record bool
	}{
		{"first miss", n, true},
		{"concurrent miss", n, false},
		{"concurrent shorter miss", n / 2, false},
		{"concurrent longer miss", 2 * n, true},
		{"over-budget miss", 5 * n, false},
	}
	for _, st := range steps {
		if s, record := m.lookup("k", st.n); s != nil || record != st.record {
			t.Fatalf("%s: hit %v, record %v; want a miss, record %v", st.label, s != nil, record, st.record)
		}
	}
	m.finish("k", 2*n, nil)
	m.finish("k", n, nil)
	if m.streams.Len() != 0 || len(m.recording) != 0 {
		t.Fatalf("failed recordings left %d streams, %d recordings", m.streams.Len(), len(m.recording))
	}
	if _, record := m.lookup("k", n); !record {
		t.Fatal("a miss after failed recordings does not record")
	}
	m.finish("k", n, make([]trace.Rec, n))
	if s, record := m.lookup("k", n-1); len(s) != n-1 || record {
		t.Fatalf("prefix lookup: %d records, record %v; want %d, false", len(s), record, n-1)
	}
}

// TestGeneratorRunningDryIsAnError: a generator stream never runs dry,
// so one that does is a fault to report, not a silent end of the run.
func TestGeneratorRunningDryIsAnError(t *testing.T) {
	refs := []trace.Ref{{Addr: 64}, {Addr: 128}}
	st := &stream{rr: trace.NewRoundRobin(trace.NewSliceSource(refs, refs[:1])), n: 4, buf: make([]trace.Rec, batchRecords)}
	if b, err := st.next(); err == nil {
		t.Fatalf("a generator that ran dry after 3 of 4 references produced a batch of %d", len(b))
	}
}
