package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"jetty/internal/engine"
	"jetty/internal/metrics"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// Conservation: a timeline is an exact decomposition of the run, never a
// lossy summary. Summing any timeline's windows must reproduce the
// end-of-run metrics bit for bit — references, every L2 event counter,
// every filter counter — and attaching a sampler must not change any
// final result. Both properties are exercised on random
// (workload, machine, seed, interval) points and on the whole library.

// assertConserves sums res.Timeline's windows and compares them to the
// aggregates on res itself.
func assertConserves(t *testing.T, label string, res AppResult) {
	t.Helper()
	tl := res.Timeline
	if tl == nil {
		t.Fatalf("%s: sampled run carries no timeline", label)
	}
	refs, counts, filters := tl.Sum()
	if refs != res.Refs {
		t.Errorf("%s: windows sum to %d refs, run has %d", label, refs, res.Refs)
	}
	if counts != res.Counts {
		t.Errorf("%s: window counts do not conserve:\n sum %+v\n run %+v", label, counts, res.Counts)
	}
	if len(filters) != len(res.FilterCounts) {
		t.Fatalf("%s: %d filter sums for %d filters", label, len(filters), len(res.FilterCounts))
	}
	for i := range filters {
		if filters[i] != res.FilterCounts[i] {
			t.Errorf("%s: filter %s windows do not conserve:\n sum %+v\n run %+v",
				label, res.FilterNames[i], filters[i], res.FilterCounts[i])
		}
	}
	// Window bookkeeping is internally consistent too.
	var prevEnd uint64
	for i := range tl.Windows {
		w := &tl.Windows[i]
		if w.StartRef != prevEnd || w.EndRef-w.StartRef != w.Refs {
			t.Fatalf("%s: window %d bounds inconsistent: %+v after end %d", label, i, w, prevEnd)
		}
		prevEnd = w.EndRef
	}
	if prevEnd != res.Refs {
		t.Errorf("%s: windows end at %d, run at %d", label, prevEnd, res.Refs)
	}
}

// stripTimeline clears the only field a sampled result may legitimately
// add, for bit-identity comparison against the unsampled run.
func stripTimeline(res AppResult) AppResult {
	res.Timeline = nil
	return res
}

func TestTimelineConservesUnderRandomRuns(t *testing.T) {
	const rounds = 6
	intervals := []uint64{64, 512, 1 << 12, 1 << 14, 1 << 16 /* > run length: single flush window */}
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("seed=%d", round), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(0x71AE ^ int64(round)*976369))
			sp := randSpec(r, round)
			cfg, err := randMachine(r, safetyBank(r))
			if err != nil {
				t.Fatal(err)
			}
			interval := intervals[r.Intn(len(intervals))]

			sampled, err := runSingle(context.Background(), Input{Spec: sp}, cfg, Plan{Sample: SampleOptions{Interval: interval}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertConserves(t, fmt.Sprintf("iv=%d", interval), sampled)

			// Sampling enabled vs disabled: bit-identical final results.
			plain, err := runSingle(context.Background(), Input{Spec: sp}, cfg, Plan{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripTimeline(sampled), plain) {
				t.Errorf("sampled run diverged from unsampled:\n sampled %+v\n plain   %+v",
					stripTimeline(sampled), plain)
			}
		})
	}
}

func TestTimelineConservesOnLibrary(t *testing.T) {
	cfg, err := bankConfig(4, goldenConfigs)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range workload.Library() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			res, err := runSingle(context.Background(), Input{Spec: sp.Scale(0.02)}, cfg, Plan{Sample: SampleOptions{Interval: 1024}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertConserves(t, sp.Name, res)
		})
	}
}

// TestSampledReplayMatchesDirect extends the replay guarantee to
// sampling: a sampled replay of a recorded trace conserves, matches the
// unsampled replay on every aggregate, and its timeline equals the
// generator run's (same stream, same machine, same boundaries).
func TestSampledReplayMatchesDirect(t *testing.T) {
	cfg, err := bankConfig(4, goldenConfigs)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := workload.Lookup("WebServer")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.Scale(0.02)
	opt := SampleOptions{Interval: 1024}

	in, err := LoadTrace("", recordSpec(t, sp, cfg.CPUs, trace.WriterOptions{Meta: trace.Meta{App: sp.Name}}))
	if err != nil {
		t.Fatal(err)
	}

	sampled, err := runSingle(context.Background(), Input{Trace: &in}, cfg, Plan{Sample: opt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertConserves(t, "replay", sampled)

	plain, err := runSingle(context.Background(), Input{Trace: &in}, cfg, Plan{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTimeline(sampled), plain) {
		t.Error("sampled replay diverged from unsampled replay")
	}

	// And the replayed timeline equals the one the generator-driven run
	// would have produced.
	genSampled, err := runSingle(context.Background(), Input{Spec: sp}, cfg, Plan{Sample: opt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sampled.Timeline, genSampled.Timeline) {
		t.Error("replayed timeline differs from the generator run's timeline")
	}
}

// TestSampledEngineRunsShareAndCloneTimelines pins the engine-backed
// path: sampled submissions are cached under their own key (never
// colliding with unsampled runs of the same cell), identical sampled
// submissions share one execution, and cached timelines are deep-cloned
// to each caller.
func TestSampledEngineRunsShareAndCloneTimelines(t *testing.T) {
	cfg, err := bankConfig(4, goldenConfigs)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := workload.Lookup("Lu")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.Scale(0.02)
	opt := SampleOptions{Interval: 1024}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	ctx := context.Background()

	j1 := submitOne(eng, Input{Spec: sp}, cfg, opt)
	j2 := submitOne(eng, Input{Spec: sp}, cfg, opt)
	if j1.Status().Key != j2.Status().Key {
		t.Fatal("identical sampled runs have different keys")
	}
	plainKey := submitOne(eng, Input{Spec: sp}, cfg, SampleOptions{})
	if plainKey.Status().Key == j1.Status().Key {
		t.Fatal("sampled and unsampled runs share a cache key")
	}
	plainKey.Cancel()

	a, err := waitResult(ctx, j1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := waitResult(ctx, j2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Timeline == nil || b.Timeline == nil {
		t.Fatal("engine-backed sampled run lost its timeline")
	}
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Error("shared sampled runs disagree")
	}
	if &a.Timeline.Windows[0] == &b.Timeline.Windows[0] {
		t.Error("cached timeline not cloned per caller")
	}
	assertConserves(t, "engine", a)

	// An invalid interval fails cleanly through the engine.
	bad := submitOne(eng, Input{Spec: sp}, cfg, SampleOptions{Interval: metrics.MinInterval - 1})
	if _, err := bad.Wait(ctx); err == nil {
		t.Error("sub-minimum interval accepted")
	}
}
