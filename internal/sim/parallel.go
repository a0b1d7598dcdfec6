package sim

import (
	"context"
	"fmt"
	"sync"

	"jetty/internal/energy"
	"jetty/internal/engine"
	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/smp"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// The paper's evaluation is embarrassingly parallel: one independent,
// fully seeded simulation pass per (application, machine) pair. This
// file submits those passes to an engine.Engine worker pool instead of
// running them serially. Each pass is still the exact single-threaded
// simulation of RunApp — only scheduling changes — so results are
// bit-identical to the serial path (TestParallelSuiteMatchesSerial
// asserts it under the race detector).

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

// Runner executes app runs on an engine worker pool.
type Runner struct {
	eng *engine.Engine
}

// NewRunner wraps an engine. The caller keeps ownership (and the Close
// responsibility) of the engine.
func NewRunner(e *engine.Engine) *Runner { return &Runner{eng: e} }

// Engine returns the underlying engine (for stats and job submission).
func (r *Runner) Engine() *engine.Engine { return r.eng }

// Submit schedules one app run and returns its job handle. The job's
// result is an AppResult; prefer RunApp/RunApps unless the caller needs
// asynchronous status.
func (r *Runner) Submit(sp workload.Spec, cfg smp.Config) *engine.Job {
	in := Input{Spec: sp}
	return r.eng.SubmitGroup(GroupTask(in, []Member{{Key: Key(in, cfg, 0), Config: cfg}}, SampleOptions{}))[0]
}

// RunApp runs one application through the engine and waits for it.
func (r *Runner) RunApp(ctx context.Context, sp workload.Spec, cfg smp.Config) (AppResult, error) {
	return waitResult(ctx, r.Submit(sp, cfg))
}

// RunApps runs one simulation per spec concurrently and returns the
// results in spec order. On error the remaining jobs are released.
func (r *Runner) RunApps(ctx context.Context, specs []workload.Spec, cfg smp.Config) ([]AppResult, error) {
	jobs := make([]*engine.Job, len(specs))
	for i, sp := range specs {
		jobs[i] = r.Submit(sp, cfg)
	}
	out := make([]AppResult, len(specs))
	var firstErr error
	for i, j := range jobs {
		if firstErr != nil {
			j.Cancel()
			continue
		}
		res, err := waitResult(ctx, j)
		if err != nil {
			firstErr = fmt.Errorf("sim: %s: %w", specs[i].Name, err)
			continue
		}
		out[i] = res
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// RunSuite runs the whole benchmark suite (every Table 2 application at
// the given access-budget scale) on the engine.
func (r *Runner) RunSuite(ctx context.Context, cfg smp.Config, scale float64) ([]AppResult, error) {
	specs := workload.Specs()
	for i := range specs {
		specs[i] = specs[i].Scale(scale)
	}
	return r.RunApps(ctx, specs, cfg)
}

// PaperSuite runs the suite on the paper's machine with the full figure
// filter bank attached.
func (r *Runner) PaperSuite(ctx context.Context, cpus int, scale float64) ([]AppResult, smp.Config, error) {
	cfg, err := paperSuiteConfig(cpus, false)
	if err != nil {
		return nil, smp.Config{}, err
	}
	results, err := r.RunSuite(ctx, cfg, scale)
	return results, cfg, err
}

// PaperSuiteNSB is PaperSuite on the non-subblocked machine.
func (r *Runner) PaperSuiteNSB(ctx context.Context, cpus int, scale float64) ([]AppResult, smp.Config, error) {
	cfg, err := paperSuiteConfig(cpus, true)
	if err != nil {
		return nil, smp.Config{}, err
	}
	results, err := r.RunSuite(ctx, cfg, scale)
	return results, cfg, err
}

// L2Sensitivity sweeps L2 size and associativity concurrently (see the
// package-level L2Sensitivity for the experiment's rationale).
func (r *Runner) L2Sensitivity(ctx context.Context, appName string, scale float64) ([]SensitivityPoint, error) {
	sp, err := workload.ByName(appName)
	if err != nil {
		return nil, err
	}
	sp = sp.Scale(scale)
	best := jetty.MustParse(bestHybridName)
	tech := energy.Tech180()

	type point struct {
		size, assoc int
		cfg         smp.Config
		job         *engine.Job
	}
	var points []point
	for _, size := range []int{1 << 19, 1 << 20, 2 << 20, 4 << 20} {
		for _, assoc := range []int{4, 8} {
			cfg := smp.PaperConfig(4).WithFilters(best)
			cfg.L2.SizeBytes = size
			cfg.L2.Assoc = assoc
			points = append(points, point{size: size, assoc: assoc, cfg: cfg, job: r.Submit(sp, cfg)})
		}
	}

	out := make([]SensitivityPoint, 0, len(points))
	var firstErr error
	for _, p := range points {
		if firstErr != nil {
			p.job.Cancel()
			continue
		}
		res, err := waitResult(ctx, p.job)
		if err != nil {
			firstErr = err
			continue
		}
		cov, err := res.CoverageOf(best.Name())
		if err != nil {
			firstErr = err
			continue
		}
		red := EnergyReductions(res, p.cfg, tech, energy.SerialTagData)
		out = append(out, SensitivityPoint{
			L2Bytes: p.size, Assoc: p.assoc, Coverage: cov, OverAll: red[0].OverAll,
		})
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// waitResult waits for one job and returns a defensive copy of its
// AppResult (engine-cached results are shared between submitters). On
// any error — including an abandoned Wait when ctx expires — it releases
// the caller's handle: without that, a still-running execution would
// keep burning a worker with no remaining consumer.
func waitResult(ctx context.Context, j *engine.Job) (AppResult, error) {
	v, err := j.Wait(ctx)
	if err != nil {
		j.Cancel()
		return AppResult{}, err
	}
	return v.(AppResult).Clone(), nil
}

// defaultRunner is the process-wide shared runner backing the package's
// serial-looking entry points (RunSuite, PaperSuite, ...). One engine
// sized to GOMAXPROCS is enough for any number of callers: it is the
// concurrency cap.
var (
	defaultMu     sync.Mutex
	defaultRunner *Runner
)

// DefaultRunner returns the shared runner, creating it on first use.
// Callers that need their own pool size build one with NewRunner
// (cmd/paper does, for its -workers flag).
func DefaultRunner() *Runner {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultRunner == nil {
		defaultRunner = NewRunner(engine.New(engine.Options{}))
	}
	return defaultRunner
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
