package sim

import (
	"fmt"

	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/smp"
)

// The paper's evaluation is embarrassingly parallel: one independent,
// fully seeded simulation pass per (application, machine) pair, which
// the engine runs concurrently (internal/sweep schedules them). Each
// pass is still the exact single-threaded simulation of RunApp, stepped
// in batches so it can report progress and be canceled; only
// scheduling changes, so results are bit-identical to the serial path
// (TestParallelSuiteMatchesSerial in internal/sweep asserts it under
// the race detector).

// SampleOptions attaches interval sampling to a run.
type SampleOptions struct {
	// Interval is the timeline window width in accesses (0 disables
	// sampling; otherwise at least metrics.MinInterval).
	Interval uint64
	// OnWindow, if non-nil, streams each window as it is emitted, on the
	// simulation goroutine, once per member of the run: member is the
	// index of its bank in Plan.Banks (0 for a run without banks), and
	// the window holds that bank's filter columns and the energy
	// breakdown, exactly as the member's finished timeline will hold it.
	// The pointer is borrowed per boundary — copy or encode before
	// returning (the jettyd live stream does).
	OnWindow func(member int, w *metrics.Window)
}

// enabled reports whether sampling is requested.
func (o SampleOptions) enabled() bool { return o.Interval > 0 }

// newSampler sizes a sampler for a run of total references (0 when the
// length is unknown) on the wide machine cfg carrying banks, so
// steady-state emission never reallocates.
func (o SampleOptions) newSampler(cfg smp.Config, banks [][]jetty.Config, total uint64) (*metrics.Sampler, error) {
	if o.Interval < metrics.MinInterval {
		return nil, fmt.Errorf("sim: sampling interval %d below minimum %d", o.Interval, metrics.MinInterval)
	}
	capacity := 0
	if total > 0 {
		capacity = int(total/o.Interval) + 2
	}
	var hook func(*metrics.Window)
	if o.OnWindow != nil {
		hook = o.stream(cfg, banks)
	}
	return metrics.NewSampler(metrics.Config{
		Interval: o.Interval,
		Filters:  len(cfg.Filters),
		Capacity: capacity,
		OnWindow: hook,
	}), nil
}

// stream adapts OnWindow to the wide sampler: every window gets the
// energy breakdown a finished timeline's windows carry, then each bank
// its own filter columns (a run without banks is its own only member).
func (o SampleOptions) stream(cfg smp.Config, banks [][]jetty.Config) func(*metrics.Window) {
	if banks == nil {
		banks = [][]jetty.Config{cfg.Filters}
	}
	we := windowEnergy(cfg)
	return func(w *metrics.Window) {
		w.Energy = we(w)
		off := 0
		for k, b := range banks {
			bw := windowColumns(w, off, len(b))
			o.OnWindow(k, &bw)
			off += len(b)
		}
	}
}
