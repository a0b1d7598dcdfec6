package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"jetty/internal/smp"
)

// TestCanceledRunReleasesCompanion cancels a plain and a fused pass
// after their first chunk. Each must return ctx.Err(), and the machine's
// companion goroutine, which was live mid-pass, must be gone once the
// call returns.
func TestCanceledRunReleasesCompanion(t *testing.T) {
	sp := quickSpec(t)
	sp.Accesses = 4 * batchRecords
	base := smp.PaperConfig(4)
	runs := map[string]func(ctx context.Context, report func(uint64)) error{
		"plain": func(ctx context.Context, report func(uint64)) error {
			_, err := runSingle(ctx, Input{Spec: sp}, base.WithFilters(fusedTestBanks()[1]...), Plan{}, report)
			return err
		},
		"fused": func(ctx context.Context, report func(uint64)) error {
			_, err := Run(ctx, Input{Spec: sp}, base, Plan{Banks: fusedTestBanks(), Sample: SampleOptions{Interval: 4096}}, report)
			return err
		},
	}
	for name, run := range runs {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var during int
		err := run(ctx, func(done uint64) {
			if during == 0 {
				during = runtime.NumGoroutine()
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		// Goroutines left over from earlier tests may exit at any time,
		// so the count is compared with an upper bound only.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the canceled run, %d before", name, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); during <= after {
			t.Fatalf("%s: %d goroutines mid-pass, %d after: the companion never ran", name, during, after)
		}
	}
}
