// Package sweep turns the repository from "runs experiments" into "runs
// studies": a declarative specification of a configuration cross-product
// — workloads × machines × JETTY filter configurations × repetitions —
// expanded into cells, scheduled through the shared internal/engine
// worker pool, and folded into paper-style aggregates.
//
// A Spec names its axes by the same strings the rest of the repository
// uses: workload.Library names (or "trace:<ref>" entries replaying a
// stored JTRC stream), machine shorthands (CPUs, L2 geometry,
// subblocking), and jetty.Parse configuration names. Expansion produces
// one Cell per point of the cross-product; every cell is
// content-addressed exactly like a single experiment (sim.Key), so the
// engine's cache and in-flight coalescing
// deduplicate overlapping cells within a sweep, across sweeps, and
// against every other experiment the process has run — re-running an
// identical sweep recomputes nothing.
//
// Two filter placements are supported. "bank" (the default) attaches
// every swept filter configuration to each (workload, machine) run as
// simultaneous observers — the paper's own methodology, one simulation
// pass measuring the whole bank, because filtering never perturbs
// protocol outcomes. "each" gives every filter its own cell. Both
// produce identical per-filter numbers (TestBankMatchesEach asserts it);
// bank mode costs |filters|× less simulation.
//
// Every cell runs as a member of one engine group task (sim.GroupTask),
// and fusion is the only schedule: cells that agree on everything but
// their filter group (same workload, scale, seed, machine geometry) are
// planned into one unit (plan.go) whose single sim.Run replays the
// reference stream once with every member's bank attached as
// concatenated observers; a cell with a stream of its own is a unit of
// one. Each member's result is demuxed out of the wide pass and cached
// under the member cell's own content address, so fused results are
// bit-identical to runs of one cell each (TestSweepFusedMatchesPerCell
// compares against one-filter specs) and every unit shape interoperates
// through the engine cache. A sampled submission's window hook
// (Submission.OnWindow) hears every executing member of every unit.
//
// Submit is the only way in and *Sweep the only handle: a cluster
// worker runs one coordinator unit by selecting its expansion indices
// (Submission.Cells) and returns the raw per-cell results
// (Sweep.Results) instead of the folded aggregate (Sweep.Wait).
//
// Results fold into per-cell Metrics (coverage, the four Figure 6
// energy-reduction numbers, snoop-miss fractions), grouped along any
// axis combination with min/max/mean/geo-mean summaries, and render as
// CSV, JSON, markdown tables (the EXPERIMENTS.md style) or aligned
// terminal tables. cmd/jettysweep drives a sweep from the command line;
// the jettyd service exposes the same engine as POST/GET /v1/sweeps.
package sweep
