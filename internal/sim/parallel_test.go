package sim

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"jetty/internal/engine"
	"jetty/internal/jetty"
	"jetty/internal/smp"
	"jetty/internal/workload"
)

// testConfig is a small filter bank on the paper's machine.
func testConfig(cpus int) smp.Config {
	return smp.PaperConfig(cpus).WithFilters(
		jetty.MustParse("HJ(IJ-9x4x7,EJ-32x4)"),
		jetty.MustParse("EJ-16x2"),
	)
}

func TestFingerprintStability(t *testing.T) {
	sp := quickSpec(t)
	cfg := testConfig(4)

	// Same logical inputs → same key, even across distinct allocations of
	// the pointered filter configs.
	again := smp.PaperConfig(4).WithFilters(
		jetty.MustParse("HJ(IJ-9x4x7,EJ-32x4)"),
		jetty.MustParse("EJ-16x2"),
	)
	if Key(Input{Spec: sp}, cfg, 0) != Key(Input{Spec: sp}, again, 0) {
		t.Error("equal configurations must have equal fingerprints")
	}

	// Any run-relevant change must change the key.
	variants := []struct {
		name string
		sp   workload.Spec
		cfg  smp.Config
	}{
		{"scale", sp.Scale(0.5), cfg},
		{"cpus", sp, testConfig(8)},
		{"filters", sp, smp.PaperConfig(4).WithFilters(jetty.MustParse("EJ-32x4"))},
		{"l2", sp, func() smp.Config { c := testConfig(4); c.L2.SizeBytes = 2 << 20; return c }()},
		{"app", func() workload.Spec { s, _ := workload.ByName("Ocean"); return s }(), cfg},
	}
	base := Key(Input{Spec: sp}, cfg, 0)
	for _, v := range variants {
		if Key(Input{Spec: v.sp}, v.cfg, 0) == base {
			t.Errorf("%s change did not change the fingerprint", v.name)
		}
	}
}

func TestRunAppCtxMatchesRunApp(t *testing.T) {
	sp := quickSpec(t)
	cfg := testConfig(4)

	serial, err := RunApp(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reports []uint64
	chunked, err := runSingle(context.Background(), Input{Spec: sp}, cfg, Plan{}, func(done uint64) {
		reports = append(reports, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, chunked) {
		t.Fatal("chunked run diverged from the serial run")
	}
	if len(reports) == 0 || reports[len(reports)-1] != sp.Accesses {
		t.Errorf("progress reports %v must end at %d", reports, sp.Accesses)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i] <= reports[i-1] {
			t.Errorf("progress not monotonic: %v", reports)
		}
	}
}

func TestRunnerCancellation(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()

	// A deliberately long run: cancellation must cut it short at the next
	// chunk boundary rather than simulating all 50M references.
	sp := quickSpec(t)
	sp.Accesses = 50_000_000
	g := groupOne(Input{Spec: sp}, testConfig(4), SampleOptions{})
	running := make(chan struct{})
	var once sync.Once
	run := g.Run
	g.Run = func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
		return run(ctx, live, func(done uint64) {
			report(done)
			once.Do(func() { close(running) })
		})
	}
	job := eng.SubmitGroup(g)[0]

	// Cancel once the run has stepped its first batch.
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("run never reported progress")
	}
	if st := job.State(); st != engine.Running {
		t.Fatalf("state = %v, want running", st)
	}
	job.Cancel()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := job.Wait(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := job.Status(); st.Done >= sp.Accesses {
		t.Errorf("run completed despite cancellation (done=%d)", st.Done)
	}
}

func TestIdenticalInflightJobsCoalesce(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()

	// Occupy the only worker so the two identical submissions below are
	// both pending when the second one arrives.
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	blocker := eng.SubmitGroup(engine.GroupTask{
		Members: []engine.GroupMember{{Key: "blocker"}},
		Run: func(ctx context.Context, _ []int, report func(uint64)) ([]any, error) {
			started <- struct{}{}
			<-release
			return []any{nil}, nil
		},
	})[0]
	<-started

	sp := quickSpec(t)
	cfg := testConfig(4)
	j1 := submitOne(eng, Input{Spec: sp}, cfg, SampleOptions{})
	j2 := submitOne(eng, Input{Spec: sp}, cfg, SampleOptions{})
	close(release)

	res1, err1 := j1.Wait(context.Background())
	res2, err2 := j2.Wait(context.Background())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Error("coalesced submissions returned different results")
	}
	blocker.Wait(context.Background())

	st := eng.Stats()
	if st.Coalesced != 1 {
		t.Errorf("Coalesced = %d, want 1 (identical in-flight jobs must dedup)", st.Coalesced)
	}

	// A third submission after completion is a pure cache hit.
	j3 := submitOne(eng, Input{Spec: sp}, cfg, SampleOptions{})
	res3, err := j3.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !j3.Status().CacheHit {
		t.Error("repeat submission should be served from the cache")
	}
	if !reflect.DeepEqual(res1, res3) {
		t.Error("cached result differs from the computed one")
	}
}
