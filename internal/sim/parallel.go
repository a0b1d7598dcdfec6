package sim

import (
	"context"
	"fmt"

	"jetty/internal/metrics"
	"jetty/internal/smp"
	"jetty/internal/trace"
)

// The paper's evaluation is embarrassingly parallel: one independent,
// fully seeded simulation pass per (application, machine) pair, which
// the engine runs concurrently (internal/sweep schedules them). Each
// pass is still the exact single-threaded simulation of RunApp, cut
// into chunks so it can report progress and be canceled; only
// scheduling changes, so results are bit-identical to the serial path
// (TestParallelSuiteMatchesSerial in internal/sweep asserts it under
// the race detector).

// progressChunk is roughly how many references run between progress
// reports and cancellation checks. The actual chunk is rounded down to a
// multiple of the CPU count so every chunk ends exactly on a round-robin
// cycle boundary — the run decomposition the serial path would also pass
// through, keeping chunked execution bit-identical.
const progressChunk = 1 << 16

// runChunked drives sys over src for up to accesses references in
// interleaving-preserving chunks: every chunk ends exactly on a
// round-robin cycle boundary, the decomposition the uninterrupted path
// would also pass through, so chunking never perturbs determinism. It
// stops early (without error) if the source runs dry — replayed traces
// are finite even when the budget says otherwise.
func runChunked(ctx context.Context, sys *smp.System, src trace.Source, accesses uint64, report func(done uint64)) error {
	ncpu := src.CPUs()
	if ncpu > sys.Config().CPUs {
		ncpu = sys.Config().CPUs
	}
	chunk := uint64(progressChunk)
	chunk -= chunk % uint64(ncpu)
	if chunk == 0 {
		chunk = uint64(ncpu)
	}

	var done uint64
	for done < accesses {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := chunk
		if rem := accesses - done; rem < n {
			n = rem
		}
		ran := sys.Run(src, n)
		done += ran
		if report != nil {
			report(done)
		}
		if ran == 0 {
			return nil
		}
	}
	return nil
}

// SampleOptions attaches interval sampling to a run.
type SampleOptions struct {
	// Interval is the timeline window width in accesses (0 disables
	// sampling; otherwise at least metrics.MinInterval).
	Interval uint64
	// OnWindow, if non-nil, streams each window as it is emitted, on the
	// simulation goroutine. The pointer is borrowed per boundary — copy
	// or encode before returning (the jettyd live stream does).
	OnWindow func(*metrics.Window)
}

// enabled reports whether sampling is requested.
func (o SampleOptions) enabled() bool { return o.Interval > 0 }

// newSampler sizes a sampler for a run of total references (0 when the
// length is unknown) so steady-state emission never reallocates.
func (o SampleOptions) newSampler(cfg smp.Config, total uint64) (*metrics.Sampler, error) {
	if o.Interval < metrics.MinInterval {
		return nil, fmt.Errorf("sim: sampling interval %d below minimum %d", o.Interval, metrics.MinInterval)
	}
	capacity := 0
	if total > 0 {
		capacity = int(total/o.Interval) + 2
	}
	return metrics.NewSampler(metrics.Config{
		Interval: o.Interval,
		Filters:  len(cfg.Filters),
		Capacity: capacity,
		OnWindow: o.OnWindow,
	}), nil
}

// Task kinds: the telemetry label (engine.GroupTask.Kind) each
// submission carries, so jettyd's per-kind latency histograms and
// slow-job logs distinguish generated runs from trace replays and sweep
// cells.
const (
	KindWorkload = "workload" // generator-driven app run
	KindTrace    = "trace"    // stored-trace replay
	KindSweep    = "sweep"    // sweep cell (set by internal/sweep)
	KindFused    = "fused"    // fused multi-bank group run (one pass, N cells)
)
