package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"jetty/internal/engine"
	"jetty/internal/jetty"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/workload"
)

// TestParallelSuiteMatchesSerial is the determinism acceptance test: the
// Table 2 suite run as a sweep on the engine must return results
// byte-identical to the serial reference implementation. Run it under
// -race to also check the pool's memory discipline.
func TestParallelSuiteMatchesSerial(t *testing.T) {
	const scale = 0.02
	filters := []string{"HJ(IJ-9x4x7,EJ-32x4)", "EJ-16x2"}
	cfg := smp.PaperConfig(4).WithFilters(jetty.MustParse(filters[0]), jetty.MustParse(filters[1]))

	serial, err := sim.RunSuiteSerial(cfg, scale)
	if err != nil {
		t.Fatal(err)
	}

	spec := Spec{Filters: filters, Scale: scale}
	for _, sp := range workload.Specs() {
		spec.Workloads = append(spec.Workloads, sp.Name)
	}
	res, err := Run(context.Background(), testEngine(t), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var parallel []sim.AppResult
	for _, c := range res.Cells {
		parallel = append(parallel, c.Result)
	}

	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel suite diverged from serial suite")
	}
	sb, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(sb) != string(pb) {
		t.Fatal("parallel suite not byte-identical to serial suite")
	}
}

// TestSweepWaitCanceledReleasesWorker: a Wait abandoned by its context
// releases the sweep's cells, so a long cell stops occupying the only
// worker and new work runs promptly.
func TestSweepWaitCanceledReleasesWorker(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	t.Cleanup(eng.Close)

	long := Spec{Workloads: []string{"Fmm"}, Filters: []string{"EJ-8x2"}, Scale: 1000}
	s, err := Submit(eng, long, nil, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), eng, Spec{Workloads: []string{"Lu"}, Filters: []string{"EJ-8x2"}, Scale: 0.02}, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker still occupied by the abandoned sweep")
	}
}

// TestSweepResultsAreIsolated: mutating one caller's result must not
// poison the engine cache behind an identical rerun.
func TestSweepResultsAreIsolated(t *testing.T) {
	eng := testEngine(t)
	spec := Spec{Workloads: []string{"Lu"}, Filters: []string{"EJ-32x4", "EJ-16x2"}, Scale: 0.02}

	a, err := Run(context.Background(), eng, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Cells[0].Result.Coverage[0] = -1
	a.Cells[0].Result.FilterNames[0] = "tampered"
	a.Cells[0].Result.RemoteHitFrac[0] = -1

	b, err := Run(context.Background(), eng, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().CacheHits == 0 {
		t.Fatal("rerun was not served from the cache")
	}
	r := b.Cells[0].Result
	if r.Coverage[0] == -1 || r.FilterNames[0] == "tampered" || r.RemoteHitFrac[0] == -1 {
		t.Error("cache returned a result aliased to a previous caller's slices")
	}
}
