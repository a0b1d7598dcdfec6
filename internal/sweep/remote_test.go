package sweep

import (
	"context"
	"reflect"
	"testing"
	"time"

	"jetty/internal/jetty"
	"jetty/internal/sim"
)

// runUnit simulates a planned unit here, as a worker would.
func runUnit(ctx context.Context, spec Spec, unit []Cell) ([]sim.AppResult, error) {
	banks := make([][]jetty.Config, len(unit))
	for k, c := range unit {
		banks[k] = c.cfg.Filters
	}
	plan := sim.Plan{Banks: banks, Sample: sim.SampleOptions{Interval: spec.Interval}}
	return sim.Run(ctx, unit[0].in, unit[0].cfg.WithoutFilters(), plan, nil)
}

// TestPartialMetricsWhileUnitPending drives a sweep through the Remote
// seam: the unit holding cell 0 is answered at once, the other waits
// for release. While it waits, the detailed status folds exactly the
// finished unit's cells; once released, the sweep equals a local run
// and the partial metrics are gone.
func TestPartialMetricsWhileUnitPending(t *testing.T) {
	spec := Spec{
		Name:       "partial",
		Workloads:  []string{"Lu", "ch"},
		Filters:    []string{"EJ-32x4", "EJ-16x2"},
		FilterMode: ModeEach,
		Scale:      0.02,
	}
	release := make(chan struct{})
	var first []Cell
	remote := func(ctx context.Context, unit []Cell) ([]sim.AppResult, error) {
		if unit[0].Index == 0 {
			first = unit
		} else {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return runUnit(ctx, spec, unit)
	}
	s, err := Submit(testEngine(t), spec, nil, Submission{Remote: remote})
	if err != nil {
		t.Fatal(err)
	}
	if len(PlanUnits(s.cells)) != 2 {
		t.Fatal("want the spec planned as two units")
	}

	deadline := time.Now().Add(20 * time.Second)
	st := s.Status(true)
	for st.Finished < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("first unit never finished: %+v", st)
		}
		time.Sleep(time.Millisecond)
		st = s.Status(true)
	}
	if st.Finished != len(first) || st.State != "running" {
		t.Fatalf("status %s with %d cells finished, want running with the first unit's %d", st.State, st.Finished, len(first))
	}
	results, err := runUnit(t.Context(), spec, first)
	if err != nil {
		t.Fatal(err)
	}
	if want := fold(s.spec, first, results).Metrics; !reflect.DeepEqual(st.PartialMetrics, want) {
		t.Errorf("partial metrics\n%+v\nwant the first unit's fold\n%+v", st.PartialMetrics, want)
	}
	if s.Status(false).PartialMetrics != nil {
		t.Error("a brief status carries partial metrics")
	}

	close(release)
	got, err := s.Wait(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(t.Context(), testEngine(t), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a sweep run through Remote diverges from a local run")
	}
	if st := s.Status(true); st.State != "done" || st.PartialMetrics != nil {
		t.Errorf("finished sweep: state %s, %d partial metrics; want done and none", st.State, len(st.PartialMetrics))
	}
}
