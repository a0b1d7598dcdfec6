package sim

import (
	"context"
	"reflect"
	"testing"

	"jetty/internal/jetty"
	"jetty/internal/smp"
	"jetty/internal/trace"
)

// fusedTestBanks is a small multi-member bank mix: single filters, a
// multi-filter bank, and a duplicate of an earlier bank (members may
// repeat in a sweep's "each" mode across machines).
func fusedTestBanks() [][]jetty.Config {
	return [][]jetty.Config{
		{jetty.MustParse("EJ-32x4")},
		{jetty.MustParse("VEJ-32x4-8"), jetty.MustParse("IJ-10x4x7")},
		{jetty.MustParse("HJ(IJ-9x4x7,EJ-32x4)")},
		{jetty.MustParse("EJ-32x4")},
	}
}

// TestFusedMatchesSeparateRuns is the sim-layer half of the fused
// bit-identity claim: one wide pass projected per member equals N
// separate runs, field for field, with and without sampling.
func TestFusedMatchesSeparateRuns(t *testing.T) {
	sp := quickSpec(t)
	base := smp.PaperConfig(4)
	banks := fusedTestBanks()

	for _, interval := range []uint64{0, 4096} {
		opt := SampleOptions{Interval: interval}
		fused, err := Run(context.Background(), Input{Spec: sp}, base, Plan{Banks: banks, Sample: opt}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(fused) != len(banks) {
			t.Fatalf("interval %d: %d results for %d banks", interval, len(fused), len(banks))
		}
		for i, bank := range banks {
			var sep AppResult
			if interval > 0 {
				sep, err = runSingle(context.Background(), Input{Spec: sp}, base.WithFilters(bank...), Plan{Sample: opt}, nil)
			} else {
				sep, err = runSingle(context.Background(), Input{Spec: sp}, base.WithFilters(bank...), Plan{}, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fused[i], sep) {
				t.Errorf("interval %d: member %d diverges from its separate run", interval, i)
			}
		}
	}
}

// TestFusedTraceMatchesSeparateReplays pins the same identity for the
// stored-trace replay path.
func TestFusedTraceMatchesSeparateReplays(t *testing.T) {
	sp := quickSpec(t)
	base := smp.PaperConfig(4)

	// Record the workload's trace, then replay it fused.
	in, err := LoadTrace(sp.Name, recordSpec(t, sp, base.CPUs, trace.WriterOptions{Meta: trace.Meta{App: sp.Name}}))
	if err != nil {
		t.Fatal(err)
	}

	banks := fusedTestBanks()
	opt := SampleOptions{Interval: 4096}
	fused, err := Run(context.Background(), Input{Trace: &in}, base, Plan{Banks: banks, Sample: opt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, bank := range banks {
		sep, err := runSingle(context.Background(), Input{Trace: &in}, base.WithFilters(bank...), Plan{Sample: opt}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fused[i], sep) {
			t.Errorf("member %d diverges from its separate replay", i)
		}
	}
}

// TestFusedResultsAreIsolated guards the projection's allocation
// discipline: mutating one member's slices must not bleed into another
// member or a second projection of the same run.
func TestFusedResultsAreIsolated(t *testing.T) {
	sp := quickSpec(t)
	base := smp.PaperConfig(4)
	banks := [][]jetty.Config{
		{jetty.MustParse("EJ-32x4")},
		{jetty.MustParse("EJ-32x4")},
	}
	opt := SampleOptions{Interval: 4096}
	fused, err := Run(context.Background(), Input{Spec: sp}, base, Plan{Banks: banks, Sample: opt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fused[0], fused[1]) {
		t.Fatal("identical banks must project identically")
	}
	fused[0].FilterCounts[0].Filtered++
	fused[0].Coverage[0] = -1
	fused[0].Timeline.Windows[0].Filters[0].Probes++
	fused[0].Bus.RemoteHits[0]++
	if reflect.DeepEqual(fused[0], fused[1]) {
		t.Fatal("members share backing arrays")
	}
}
