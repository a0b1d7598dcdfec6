package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"jetty/internal/cluster"
	"jetty/internal/engine"
	"jetty/internal/service"
	"jetty/internal/sim"
	"jetty/internal/sweep"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// waitSweep waits for the distributed sweep and fails the test on error.
func waitSweep(t *testing.T, s *sweep.Sweep) *sweep.Result {
	t.Helper()
	res, err := s.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// randomSpec draws one sweep spec from the property-test distribution:
// 1–2 workloads, 1–2 machines, 1–3 filters in either placement mode,
// optional repetition, optional sampled timelines, units of one to
// three cells — every axis the distributed path must preserve.
func randomSpec(r *rand.Rand) sweep.Spec {
	workloads := []string{"Lu", "ch", "Fmm"}
	filters := []string{"EJ-32x4", "EJ-16x2", "IJ-8x4x7"}
	spec := sweep.Spec{
		Name:  fmt.Sprintf("prop-%d", r.Intn(1_000_000)),
		Scale: 0.01 + 0.02*r.Float64(),
	}
	for _, i := range r.Perm(len(workloads))[:1+r.Intn(2)] {
		spec.Workloads = append(spec.Workloads, workloads[i])
	}
	for _, i := range r.Perm(len(filters))[:1+r.Intn(3)] {
		spec.Filters = append(spec.Filters, filters[i])
	}
	if r.Intn(2) == 0 {
		spec.Machines = append(spec.Machines, sweep.Machine{}, sweep.Machine{CPUs: 2, L2Bytes: 512 << 10, L2Assoc: 2})
	}
	if r.Intn(2) == 0 {
		// Each mode fuses a unit of one cell per filter; bank mode, or a
		// one-filter axis, makes units of one.
		spec.FilterMode = sweep.ModeEach
	}
	if r.Intn(2) == 0 {
		spec.Repeat = 2
	}
	if r.Intn(2) == 0 {
		spec.Interval = 20_000 + uint64(r.Intn(4))*10_000
		if r.Intn(2) == 0 {
			spec.Timelines = sweep.TimelinesAll
		} else {
			spec.Timelines = sweep.TimelinesFirst
		}
	}
	return spec
}

// TestClusterMatchesSingleProcess is the distribution property: for
// randomized specs — fused "each"-mode groups, sampled timelines,
// repeats, multi-machine axes — a 3-worker cluster folds the exact
// result a single process folds. DeepEqual, not approximately: the
// cells are content-addressed, the results JSON-exact, and the fold is
// the same code path.
func TestClusterMatchesSingleProcess(t *testing.T) {
	_, clients := startWorkers(t, 3, service.Options{Workers: 2})
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{})

	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := randomSpec(rand.New(rand.NewSource(seed)))
			if err := spec.Validate(); err != nil {
				t.Fatalf("generated spec invalid: %v", err)
			}
			want := runLocal(t, spec, nil)

			s := submit(t, eng, co, spec, nil, sweep.Submission{Origin: "test"})
			got := waitSweep(t, s)
			if !reflect.DeepEqual(want.Metrics, got.Metrics) {
				t.Errorf("metrics diverge from single-process run:\nlocal   %+v\ncluster %+v", want.Metrics, got.Metrics)
			}
			if !reflect.DeepEqual(want.Timelines, got.Timelines) {
				t.Errorf("timelines diverge from single-process run")
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("folded results diverge from single-process run")
			}
		})
	}
}

// TestClusterSurvivesWorkerLoss kills and degrades workers mid-sweep —
// one crashes on its first unit and restarts with empty state, one
// answers a 503 burst and then loses a computed reply mid-flight, one
// stays healthy — and the sweep must still retire every cell exactly
// once, bit-identical to the single-process run.
func TestClusterSurvivesWorkerLoss(t *testing.T) {
	workers, clients := startWorkers(t, 3, service.Options{Workers: 2})
	co := newCoordinator(t, clients, func(o *cluster.Options) {
		o.MaxInflightPerWorker = 2
	})
	eng := newEngine(t, co, engine.Options{})

	// Worker 0 crashes the moment its first unit arrives, and comes back
	// 150ms later as a fresh process that remembers nothing.
	workers[0].onCells = func(n int) {
		if n == 1 {
			workers[0].crash()
			go func() {
				time.Sleep(150 * time.Millisecond)
				workers[0].restart()
			}()
		}
	}
	// Worker 1 is overloaded for its first two units, then computes one
	// unit fully but loses the reply on the wire.
	workers[1].failNext = 2
	workers[1].dropNext = 1

	spec := sweep.Spec{
		Name:       "worker-loss",
		Workloads:  []string{"Lu", "ch"},
		Machines:   []sweep.Machine{{}, {CPUs: 2, L2Bytes: 512 << 10, L2Assoc: 2}},
		Filters:    []string{"EJ-32x4", "EJ-16x2", "IJ-8x4x7"},
		FilterMode: sweep.ModeEach,
		Repeat:     2,
		Scale:      0.02,
	}
	want := runLocal(t, spec, nil)

	s := submit(t, eng, co, spec, nil, sweep.Submission{Origin: "test"})
	got := waitSweep(t, s)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("result diverges from single-process run after worker loss")
	}

	st := co.Stats()
	if st.CellsRescheduled == 0 {
		t.Error("crash produced no rescheduled cells — the fault never landed")
	}
	// Exactly-once retirement, observed through the counters: every
	// distinct digest was resolved by exactly one non-redundant delivery
	// (computed, worker L1 cache hit, or coordinator engine cache hit).
	// Lost twins that delivered anyway are accounted separately as
	// redundant completions.
	hits := eng.Stats().CacheHits
	retired := st.CellsComputed + st.WorkerCacheHits + hits
	if want := uint64(distinctKeys(s.Cells())); retired != want {
		t.Errorf("retired %d distinct cells (computed %d + L1 %d + engine cache %d), want exactly %d",
			retired, st.CellsComputed, st.WorkerCacheHits, hits, want)
	}
	if workers[0].cellRequests() == 0 {
		t.Error("worker 0 never saw a unit — crash path untested")
	}
}

// TestClusterBoundsOversizedReply: a worker whose /v1/cells reply
// never ends is cut off at the unit's reply bound, declared dead and its
// unit rescheduled; the sweep completes on the survivor, bit-identical
// to the single-process run, and the coordinator stops reading within a
// few socket buffers of the bound (a few KiB for these unsampled units).
func TestClusterBoundsOversizedReply(t *testing.T) {
	workers, clients := startWorkers(t, 2, service.Options{Workers: 2})
	workers[0].bloatNext = 1
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{})

	spec := sweep.Spec{
		Name:       "oversized-reply",
		Workloads:  []string{"Lu", "ch", "Fmm"},
		Filters:    []string{"EJ-32x4", "IJ-8x4x7"},
		FilterMode: sweep.ModeEach,
		Scale:      0.02,
	}
	want := runLocal(t, spec, nil)
	s := submit(t, eng, co, spec, nil, sweep.Submission{Origin: "test"})
	if got := waitSweep(t, s); !reflect.DeepEqual(want, got) {
		t.Fatal("result diverges from single-process run after an oversized reply")
	}
	if workers[0].cellRequests() == 0 {
		t.Fatal("worker 0 never saw a unit — the oversized reply was never sent")
	}
	if st := co.Stats(); st.CellsRescheduled == 0 {
		t.Error("the oversized reply rescheduled no cells")
	}
	if sent := workers[0].bloatedBytes(); sent > 16<<20 {
		t.Errorf("the coordinator accepted %d bytes of an endless reply", sent)
	}
}

// TestClusterSurvivesSlowLoris: a worker that stalls past the dispatch
// deadline is declared dead and its unit rescheduled; the sweep
// completes on the survivors, and the stalled worker is revived by the
// prober once it behaves again.
func TestClusterSurvivesSlowLoris(t *testing.T) {
	workers, clients := startWorkers(t, 2, service.Options{Workers: 2})
	co := newCoordinator(t, clients, func(o *cluster.Options) {
		o.RequestTimeout = 250 * time.Millisecond
	})
	eng := newEngine(t, co, engine.Options{})

	// Worker 0 stalls its first unit well past the 250ms dispatch
	// deadline, then behaves.
	workers[0].stall = 2 * time.Second
	workers[0].stallNext = 1

	spec := sweep.Spec{
		Name:      "slow-loris",
		Workloads: []string{"Lu", "ch"},
		Filters:   []string{"EJ-16x2"},
		Repeat:    2,
		Scale:     0.02,
	}
	want := runLocal(t, spec, nil)
	s := submit(t, eng, co, spec, nil, sweep.Submission{Origin: "test"})
	got := waitSweep(t, s)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("result diverges from single-process run after slow-loris stall")
	}
	if st := co.Stats(); st.CellsRescheduled == 0 {
		t.Error("stalled unit was never rescheduled")
	}

	// The prober revives the worker once it answers again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := co.Stats(); st.WorkersAlive == st.WorkersConfigured {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled worker never revived")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterToleratesLateHealthz: a healthy worker whose /healthz
// answers 1.5 probe periods late, as one under CPU load may, misses one
// probe deadline at a time and stays alive. Nothing is hedged, so a
// sweep over such workers records no rescheduled cells and no redundant
// completions.
func TestClusterToleratesLateHealthz(t *testing.T) {
	// Long enough that the half period left after a 1.5-period delay
	// covers the probe's own HTTP round trip under the race detector.
	const interval = 200 * time.Millisecond
	workers, clients := startWorkers(t, 2, service.Options{Workers: 2})
	co := newCoordinator(t, clients, func(o *cluster.Options) { o.ProbeInterval = interval })
	eng := newEngine(t, co, engine.Options{})
	for _, w := range workers {
		w.delayHealth(interval * 3 / 2)
	}

	// Watch for a down transition for as long as the workers are probed.
	stop := make(chan struct{})
	downs := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				close(downs)
				return
			case <-time.After(time.Millisecond):
			}
			if st := co.Stats(); st.WorkersAlive != st.WorkersConfigured {
				for _, w := range st.Workers {
					if !w.Alive {
						downs <- w.Name + ": " + w.LastError
						close(downs)
						return
					}
				}
			}
		}
	}()

	spec := sweep.Spec{
		Name:      "late-healthz",
		Workloads: []string{"Lu", "ch"},
		Filters:   []string{"EJ-32x4", "EJ-16x2"},
		Repeat:    2,
		Scale:     0.02,
	}
	want := runLocal(t, spec, nil)
	got := waitSweep(t, submit(t, eng, co, spec, nil, sweep.Submission{Origin: "test"}))
	// Keep probing until every worker has answered several probes late.
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range workers {
		for n, _ := w.delayedProbes(); n < 4; n, _ = w.delayedProbes() {
			if time.Now().After(deadline) {
				t.Fatalf("a worker saw only %d late probes", n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	close(stop)
	if down, ok := <-downs; ok {
		t.Fatalf("a late /healthz downed worker %s", down)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("result diverges from the single-process run")
	}
	if st := co.Stats(); st.CellsRescheduled != 0 || st.RedundantCompletions != 0 {
		t.Errorf("late probes rescheduled %d cells, %d redundant completions; want 0, 0",
			st.CellsRescheduled, st.RedundantCompletions)
	}
}

// TestClusterDownsUnansweringWorker: a worker whose /healthz stops
// answering is still downed: not at its probe's first deadline, but
// once the probe has gone unanswered for two probe periods (give or take
// scheduling slack).
func TestClusterDownsUnansweringWorker(t *testing.T) {
	const interval = 100 * time.Millisecond
	workers, clients := startWorkers(t, 2, service.Options{Workers: 1})
	co := newCoordinator(t, clients, func(o *cluster.Options) { o.ProbeInterval = interval })
	workers[0].delayHealth(time.Hour)

	deadline := time.Now().Add(10 * time.Second)
	for co.Stats().Workers[0].Alive {
		if time.Now().After(deadline) {
			t.Fatal("a worker that stopped answering /healthz was never downed")
		}
		time.Sleep(time.Millisecond)
	}
	downed := time.Now()
	_, first := workers[0].delayedProbes()
	if took := downed.Sub(first); took <= 3*interval/2 || took > 3*interval {
		t.Errorf("downed %v after the first unanswered probe arrived, want within (%v, %v]", took, 3*interval/2, 3*interval)
	}
	if st := co.Stats(); !st.Workers[1].Alive {
		t.Errorf("the answering worker went down too: %s", st.Workers[1].LastError)
	}
}

// TestClusterRerunHitsBothCacheTiers pins the two-tier cache contract:
// a rerun on the same coordinator resolves every cell from the
// coordinator's engine cache with zero dispatches, and a cold
// coordinator over warm workers resolves every cell from the workers'
// L1 engine caches with zero recompute. The happy path records no
// redundant completions.
func TestClusterRerunHitsBothCacheTiers(t *testing.T) {
	workers, clients := startWorkers(t, 1, service.Options{Workers: 2})
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{})

	spec := sweep.Spec{
		Name:       "rerun",
		Workloads:  []string{"Lu", "ch"},
		Filters:    []string{"EJ-32x4", "EJ-16x2"},
		FilterMode: sweep.ModeEach,
		Scale:      0.02,
	}
	s1 := submit(t, eng, co, spec, nil, sweep.Submission{Origin: "test"})
	first := waitSweep(t, s1)
	keys := uint64(distinctKeys(s1.Cells()))

	st1, hits1 := co.Stats(), eng.Stats().CacheHits
	if hits1 != 0 || st1.CellsComputed == 0 {
		t.Fatalf("cold run: engine cache hits %d (want 0), computed %d (want >0)", hits1, st1.CellsComputed)
	}

	// Rerun on the same coordinator: its engine cache answers everything
	// at submit time — zero cells dispatched cluster-wide.
	s2 := submit(t, eng, co, spec, nil, sweep.Submission{Origin: "test"})
	second := waitSweep(t, s2)
	st2 := co.Stats()
	if got := eng.Stats().CacheHits - hits1; got != keys {
		t.Errorf("engine cache rerun: %d cache hits, want %d", got, keys)
	}
	if st2.CellsDispatched != st1.CellsDispatched {
		t.Errorf("engine cache rerun dispatched %d cells, want 0", st2.CellsDispatched-st1.CellsDispatched)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cache-served rerun diverges from the computed run")
	}

	// A cold coordinator (empty engine cache) over the same warm worker:
	// every cell dispatches, and the worker answers all of them from its
	// L1 engine cache — zero recompute.
	c2, err := cluster.NewClient(workers[0].url)
	if err != nil {
		t.Fatal(err)
	}
	cold := newCoordinator(t, []*cluster.Client{c2}, nil)
	coldEng := newEngine(t, cold, engine.Options{})
	s3 := submit(t, coldEng, cold, spec, nil, sweep.Submission{Origin: "test"})
	third := waitSweep(t, s3)
	st3 := cold.Stats()
	if st3.CellsComputed != 0 {
		t.Errorf("warm-worker rerun recomputed %d cells, want 0", st3.CellsComputed)
	}
	if st3.WorkerCacheHits != keys {
		t.Errorf("warm-worker rerun: %d L1 hits, want %d", st3.WorkerCacheHits, keys)
	}
	if !reflect.DeepEqual(first, third) {
		t.Error("L1-served rerun diverges from the computed run")
	}

	for _, st := range []cluster.Stats{st1, st2, st3} {
		if st.RedundantCompletions != 0 {
			t.Errorf("happy path recorded %d redundant completions, want 0", st.RedundantCompletions)
		}
	}
}

// TestClusterReuploadsTracesAfterRestart: a worker restart loses the
// in-memory trace store; the coordinator must notice the revival and
// push referenced traces again before dispatching to it.
func TestClusterReuploadsTracesAfterRestart(t *testing.T) {
	workers, clients := startWorkers(t, 1, service.Options{Workers: 2})
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{})

	sp, err := workload.Lookup("WebServer")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, sp.Source(2), 2*4000, trace.WriterOptions{Meta: trace.Meta{App: sp.Name}}); err != nil {
		t.Fatal(err)
	}
	in, err := sim.LoadTrace("", buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	resolver := func(ref string) (sim.TraceInput, error) {
		if ref == in.Digest {
			return in, nil
		}
		return sim.TraceInput{}, fmt.Errorf("unknown trace %q", ref)
	}
	spec := sweep.Spec{
		Name:      "trace-restart",
		Workloads: []string{sweep.TracePrefix + in.Digest},
		Machines:  []sweep.Machine{{}, {CPUs: 2, L2Bytes: 512 << 10, L2Assoc: 2}},
		Filters:   []string{"EJ-16x2"},
	}
	want := runLocal(t, spec, resolver)

	// Crash on the first unit; restart shortly after with an empty trace
	// store. The second dispatch must be preceded by a fresh upload.
	workers[0].onCells = func(n int) {
		if n == 1 {
			workers[0].crash()
			go func() {
				time.Sleep(100 * time.Millisecond)
				workers[0].restart()
			}()
		}
	}

	s := submit(t, eng, co, spec, resolver, sweep.Submission{Origin: "test"})
	got := waitSweep(t, s)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("trace sweep diverges from single-process run after restart")
	}
	if ups := workers[0].traceUploads(); ups < 2 {
		t.Errorf("worker saw %d trace uploads, want >= 2 (one per incarnation)", ups)
	}
	for _, id := range workers[0].traceUploadIDs() {
		if !strings.HasPrefix(id, "test.a") {
			t.Errorf("trace upload carried request ID %q, want the sweep's origin and an attempt suffix", id)
		}
	}
}

// TestClusterFirstTraceUploadIsNoFailure: a worker answers a new trace
// upload with 201 Created. The coordinator must take that as success —
// one upload, one dispatch, no failed attempt — not as an error that
// backs off and uploads again.
func TestClusterFirstTraceUploadIsNoFailure(t *testing.T) {
	workers, clients := startWorkers(t, 1, service.Options{Workers: 1})
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{})

	in, err := sim.LoadTrace("", recordedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	resolver := func(ref string) (sim.TraceInput, error) {
		if ref == in.Digest {
			return in, nil
		}
		return sim.TraceInput{}, fmt.Errorf("unknown trace %q", ref)
	}
	spec := sweep.Spec{
		Name:      "first-upload",
		Workloads: []string{sweep.TracePrefix + in.Digest},
		Filters:   []string{"EJ-16x2"},
	}
	s := submit(t, eng, co, spec, resolver, sweep.Submission{Origin: "test"})
	waitSweep(t, s)

	if ups := workers[0].traceUploads(); ups != 1 {
		t.Errorf("worker saw %d trace uploads, want 1", ups)
	}
	st := co.Stats()
	if w := st.Workers[0]; w.Failed != 0 || w.Dispatched != 1 {
		t.Errorf("worker stats: failed %d, dispatched %d; want 0 and 1", w.Failed, w.Dispatched)
	}
	if st.CellsDispatched != 1 {
		t.Errorf("cells_dispatched = %d, want 1", st.CellsDispatched)
	}
}

// TestClusterTenantPropagation: the coordinator stamps every fan-out
// request — cell dispatches and trace uploads — with the submitting
// tenant, so worker-side quotas and fair-share see the real principal,
// and with a request ID made of the sweep's origin and the attempt, so
// one sweep can be followed through every daemon's log.
func TestClusterTenantPropagation(t *testing.T) {
	workers, clients := startWorkers(t, 2, service.Options{Workers: 2})
	workers[0].failNext = 1 // one unit is retried
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{})

	spec := sweep.Spec{
		Name:      "tenants",
		Workloads: []string{"Lu", "ch"},
		Filters:   []string{"EJ-16x2"},
		Repeat:    2,
		Scale:     0.02,
	}
	const origin = "req-0001"
	s := submit(t, eng, co, spec, nil, sweep.Submission{Origin: origin, Tenant: "team-a"})
	waitSweep(t, s)
	saw := false
	ids := map[string][]string{} // unit (its indices) → request IDs
	for _, w := range workers {
		if w.cellRequests() > 0 {
			if !w.sawTenant("team-a") {
				t.Error("worker handled cells without the X-Jetty-Tenant header")
			}
			saw = true
		}
		for _, u := range w.unitRequests() {
			unit := fmt.Sprint(u.indices)
			ids[unit] = append(ids[unit], u.id)
		}
	}
	if !saw {
		t.Fatal("no worker handled any cells")
	}
	retried := false
	for unit, got := range ids {
		seen := map[string]bool{}
		for _, id := range got {
			if !strings.HasPrefix(id, origin+".a") {
				t.Errorf("unit %s dispatched with request ID %q, want the origin %q and an attempt suffix", unit, id, origin)
			}
			if seen[id] {
				t.Errorf("unit %s: two attempts share request ID %q", unit, id)
			}
			seen[id] = true
		}
		retried = retried || len(got) > 1
	}
	if !retried {
		t.Error("no unit was retried — the 503 never landed")
	}
}

// TestClusterRequestIDFitsWorkerBound: an origin too long to fit the
// worker's 64-byte request-ID bound with its attempt suffix is cut, so
// the worker keeps the ID instead of replacing it.
func TestClusterRequestIDFitsWorkerBound(t *testing.T) {
	workers, clients := startWorkers(t, 1, service.Options{Workers: 2})
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{})
	origin := strings.Repeat("o", 80)
	spec := sweep.Spec{Name: "long-origin", Workloads: []string{"Lu"}, Filters: []string{"EJ-16x2"}, Scale: 0.02}
	waitSweep(t, submit(t, eng, co, spec, nil, sweep.Submission{Origin: origin}))
	units := workers[0].unitRequests()
	if len(units) != 1 {
		t.Fatalf("worker saw %d units, want 1", len(units))
	}
	if id := units[0].id; len(id) != 64 || id != origin[:61]+".a1" {
		t.Errorf("request ID %q (%d bytes), want the origin cut to fit 64 bytes with \".a1\"", id, len(id))
	}
}

// TestClusterStatsMonotoneUnderFaults hammers Stats() from several
// goroutines while a sweep runs through crashes and 503 bursts: every
// snapshot must be internally coherent (single-mutex-hold discipline)
// and every counter monotone across successive snapshots — the
// /v1/cluster/status torn-read regression test, run under -race.
func TestClusterStatsMonotoneUnderFaults(t *testing.T) {
	workers, clients := startWorkers(t, 3, service.Options{Workers: 2})
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{})

	workers[0].onCells = func(n int) {
		if n == 1 {
			workers[0].crash()
			go func() {
				time.Sleep(100 * time.Millisecond)
				workers[0].restart()
			}()
		}
	}
	workers[1].failNext = 3

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev cluster.Stats
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := co.Stats()
				if st.WorkersAlive > st.WorkersConfigured {
					t.Errorf("snapshot reports %d alive of %d configured", st.WorkersAlive, st.WorkersConfigured)
				}
				if len(st.Workers) != st.WorkersConfigured {
					t.Errorf("snapshot has %d worker rows, want %d", len(st.Workers), st.WorkersConfigured)
				}
				if st.CellsDispatched < prev.CellsDispatched ||
					st.CellsRescheduled < prev.CellsRescheduled ||
					st.RedundantCompletions < prev.RedundantCompletions ||
					st.WorkerCacheHits < prev.WorkerCacheHits ||
					st.CellsComputed < prev.CellsComputed {
					t.Errorf("counters went backwards: %+v then %+v", prev, st)
				}
				prev = st
			}
		}()
	}

	spec := sweep.Spec{
		Name:       "stats-race",
		Workloads:  []string{"Lu", "ch"},
		Filters:    []string{"EJ-32x4", "EJ-16x2", "IJ-8x4x7"},
		FilterMode: sweep.ModeEach,
		Repeat:     2,
		Scale:      0.02,
	}
	s := submit(t, eng, co, spec, nil, sweep.Submission{Origin: "test"})
	waitSweep(t, s)
	close(stop)
	wg.Wait()
}

// TestClusterPermanentErrorFailsSweep: a 4xx the worker will repeat
// (here: a trace reference no worker can resolve) must fail the sweep
// promptly instead of burning retries.
func TestClusterPermanentErrorFailsSweep(t *testing.T) {
	_, clients := startWorkers(t, 1, service.Options{Workers: 1})
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{})

	// The coordinator can resolve the reference, but the referenced data
	// hashes to a different digest, so the worker's store lookup fails
	// with 400 after upload — a permanent, unretryable mismatch.
	bogus := func(ref string) (sim.TraceInput, error) {
		in, err := sim.LoadTrace("", recordedTrace(t))
		if err != nil {
			return sim.TraceInput{}, err
		}
		return in, nil
	}
	spec := sweep.Spec{
		Name:      "permanent",
		Workloads: []string{sweep.TracePrefix + "deadbeef"},
		Filters:   []string{"EJ-16x2"},
	}
	s := submit(t, eng, co, spec, bogus, sweep.Submission{Origin: "test"})
	ctx, cancel := context.WithTimeout(t.Context(), 20*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx); err == nil {
		t.Fatal("sweep with an unresolvable worker-side trace reference succeeded")
	}
}

// recordedTrace returns a small recorded trace stream.
func recordedTrace(t *testing.T) []byte {
	t.Helper()
	sp, err := workload.Lookup("WebServer")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, sp.Source(2), 2*2000, trace.WriterOptions{Meta: trace.Meta{App: sp.Name}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
