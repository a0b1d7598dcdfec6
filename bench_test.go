// Benchmarks, one per table and figure of the paper. Each benchmark runs
// the experiment (at a reduced workload scale so the suite stays fast) and
// reports the headline metric via b.ReportMetric, so `go test -bench .`
// doubles as a quick reproduction record:
//
//	coverage%      suite-average snoop-miss coverage of the named filter
//	reduction%     suite-average energy reduction
//	fraction%      snoop-miss share (Tables 2/3 summaries)
//
// Run the full-scale numbers with `go run ./cmd/paper -exp all`.
package jetty_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"jetty/internal/analytic"
	"jetty/internal/energy"
	"jetty/internal/engine"
	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/sweep"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// benchScale shortens the workload access budgets for benchmarking.
const benchScale = 0.2

// BenchmarkTable1 regenerates the Xeon power-breakdown table.
func BenchmarkTable1(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		for _, row := range analytic.XeonTable() {
			frac = row.L2FractionNoPads()
		}
	}
	b.ReportMetric(frac*100, "2MB-L2-share-%")
}

// BenchmarkFig2 regenerates both panels of Figure 2 (the Appendix-A
// analytical model) and reports the paper's headline point.
func BenchmarkFig2(b *testing.B) {
	tech := energy.Tech180()
	var head float64
	for i := 0; i < b.N; i++ {
		for _, bb := range []int{32, 64} {
			analytic.ComputeFigure2(tech, bb, 21)
		}
		head = analytic.PaperParams(tech, 32).Eval(0.5, 0.1).SnoopMissE
	}
	b.ReportMetric(head*100, "headline%(paper~33)")
}

// suiteSpec is the Table 2 suite at benchScale as a bank-mode sweep on
// one machine; nil filters means the full figure bank.
func suiteSpec(m sweep.Machine, filters []string) sweep.Spec {
	spec := sweep.Spec{Machines: []sweep.Machine{m}, Filters: filters, Scale: benchScale}
	for _, sp := range workload.Specs() {
		spec.Workloads = append(spec.Workloads, sp.Name)
	}
	return spec
}

// runUncached runs a sweep on a private, cache-disabled engine
// (workers 0 = GOMAXPROCS), so every b.N iteration really re-simulates:
// with a result cache every iteration after the first would be a
// lookup.
func runUncached(b *testing.B, workers int, spec sweep.Spec) *sweep.Result {
	b.Helper()
	eng := engine.New(engine.Options{Workers: workers, CacheEntries: -1})
	defer eng.Close()
	res, err := sweep.Run(context.Background(), eng, spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// suiteOnce runs the benchmark suite once with the full figure filter
// bank; the result feeds several benchmarks below.
func suiteOnce(b *testing.B, cpus int, nsb bool) ([]sim.AppResult, smp.Config) {
	b.Helper()
	res := runUncached(b, 0, suiteSpec(sweep.Machine{CPUs: cpus, NSB: nsb}, nil))
	results := make([]sim.AppResult, len(res.Cells))
	for i, c := range res.Cells {
		results[i] = c.Result
	}
	return results, res.Cells[0].Cell.Config()
}

// avgCoverage returns the suite-average coverage of one configuration.
func avgCoverage(b *testing.B, results []sim.AppResult, name string) float64 {
	b.Helper()
	sum := 0.0
	for _, r := range results {
		cov, err := r.CoverageOf(name)
		if err != nil {
			b.Fatal(err)
		}
		sum += cov
	}
	return sum / float64(len(results))
}

// BenchmarkTable2 runs the workload characterization suite and reports the
// aggregate L2 local hit rate.
func BenchmarkTable2(b *testing.B) {
	var l2 float64
	for i := 0; i < b.N; i++ {
		results, _ := suiteOnce(b, 4, false)
		sum := 0.0
		for _, r := range results {
			sum += r.L2LocalHitRate
		}
		l2 = sum / float64(len(results))
	}
	b.ReportMetric(l2*100, "avg-L2-hit%(paper~58)")
}

// BenchmarkTable3 reports the snoop-miss fraction of all L2 accesses.
func BenchmarkTable3(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		results, _ := suiteOnce(b, 4, false)
		sum := 0.0
		for _, r := range results {
			sum += r.SnoopMissOfAll
		}
		frac = sum / float64(len(results))
	}
	b.ReportMetric(frac*100, "snoopmiss-of-all%(paper55)")
}

// BenchmarkFig4aExcludeJetty reports the best exclude-JETTY's coverage.
func BenchmarkFig4aExcludeJetty(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		results, _ := suiteOnce(b, 4, false)
		cov = avgCoverage(b, results, "EJ-32x4")
	}
	b.ReportMetric(cov*100, "EJ-32x4-coverage%(paper45)")
}

// BenchmarkFig4bVectorExcludeJetty reports the best VEJ's coverage.
func BenchmarkFig4bVectorExcludeJetty(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		results, _ := suiteOnce(b, 4, false)
		cov = avgCoverage(b, results, "VEJ-32x4-8")
	}
	b.ReportMetric(cov*100, "VEJ-32x4-8-coverage%(paper~46)")
}

// BenchmarkFig5aIncludeJetty reports the best include-JETTY's coverage.
func BenchmarkFig5aIncludeJetty(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		results, _ := suiteOnce(b, 4, false)
		cov = avgCoverage(b, results, "IJ-10x4x7")
	}
	b.ReportMetric(cov*100, "IJ-10x4x7-coverage%(paper57)")
}

// BenchmarkFig5bHybridJetty reports the paper's best hybrid's coverage.
func BenchmarkFig5bHybridJetty(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		results, _ := suiteOnce(b, 4, false)
		cov = avgCoverage(b, results, "HJ(IJ-10x4x7,EJ-32x4)")
	}
	b.ReportMetric(cov*100, "bestHJ-coverage%(paper75.6)")
}

// BenchmarkTable4 regenerates the include-JETTY storage table.
func BenchmarkTable4(b *testing.B) {
	var bytes int
	for i := 0; i < b.N; i++ {
		for _, name := range jetty.Table4Configs {
			row := jetty.MustParse(name).Include.Storage(14)
			bytes = row.TotalBytes()
		}
	}
	b.ReportMetric(float64(bytes), "IJ-6x5x6-bytes")
}

// fig6Average computes the suite-average energy reduction of the paper's
// best hybrid for one mode.
func fig6Average(b *testing.B, results []sim.AppResult, cfg smp.Config, mode energy.Mode, overAll bool) float64 {
	b.Helper()
	tech := energy.Tech180()
	sum := 0.0
	for _, r := range results {
		for _, red := range sim.EnergyReductions(r, cfg, tech, mode) {
			if red.Filter != "HJ(IJ-10x4x7,EJ-32x4)" {
				continue
			}
			if overAll {
				sum += red.OverAll
			} else {
				sum += red.OverSnoops
			}
		}
	}
	return sum / float64(len(results))
}

// BenchmarkFig6SerialEnergy reports Figure 6(a)/(b): energy reductions
// with serial tag/data arrays.
func BenchmarkFig6SerialEnergy(b *testing.B) {
	var overSnoops, overAll float64
	for i := 0; i < b.N; i++ {
		results, cfg := suiteOnce(b, 4, false)
		overSnoops = fig6Average(b, results, cfg, energy.SerialTagData, false)
		overAll = fig6Average(b, results, cfg, energy.SerialTagData, true)
	}
	b.ReportMetric(overSnoops*100, "over-snoops%(paper56)")
	b.ReportMetric(overAll*100, "over-all%(paper30)")
}

// BenchmarkFig6ParallelEnergy reports Figure 6(c)/(d): energy reductions
// with parallel tag/data arrays.
func BenchmarkFig6ParallelEnergy(b *testing.B) {
	var overSnoops, overAll float64
	for i := 0; i < b.N; i++ {
		results, cfg := suiteOnce(b, 4, false)
		overSnoops = fig6Average(b, results, cfg, energy.ParallelTagData, false)
		overAll = fig6Average(b, results, cfg, energy.ParallelTagData, true)
	}
	b.ReportMetric(overSnoops*100, "over-snoops%(paper63)")
	b.ReportMetric(overAll*100, "over-all%(paper41)")
}

// BenchmarkNoSubblockSummary reproduces the §4.3 non-subblocked numbers.
func BenchmarkNoSubblockSummary(b *testing.B) {
	var miss, cov float64
	for i := 0; i < b.N; i++ {
		results, _ := suiteOnce(b, 4, true)
		sum := 0.0
		for _, r := range results {
			sum += r.SnoopMissOfSnoops
		}
		miss = sum / float64(len(results))
		cov = avgCoverage(b, results, "HJ(IJ-10x4x7,EJ-32x4)")
	}
	b.ReportMetric(miss*100, "snoopmiss%(paper68)")
	b.ReportMetric(cov*100, "bestHJ-coverage%(paper68)")
}

// BenchmarkEightWaySummary reproduces the §4.3 8-way SMP numbers.
func BenchmarkEightWaySummary(b *testing.B) {
	var frac, cov float64
	for i := 0; i < b.N; i++ {
		results, _ := suiteOnce(b, 8, false)
		sum := 0.0
		for _, r := range results {
			sum += r.SnoopMissOfAll
		}
		frac = sum / float64(len(results))
		cov = avgCoverage(b, results, "HJ(IJ-10x4x7,EJ-32x4)")
	}
	b.ReportMetric(frac*100, "snoopmiss-of-all%(paper76.4)")
	b.ReportMetric(cov*100, "coverage%(paper79)")
}

// BenchmarkThroughputEngine measures the §1 multiprogrammed claim.
func BenchmarkThroughputEngine(b *testing.B) {
	best := jetty.MustParse("HJ(IJ-9x4x7,EJ-32x4)")
	cfg := smp.PaperConfig(4).WithFilters(best)
	var cov float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunApp(workload.Throughput().Scale(benchScale), cfg)
		if err != nil {
			b.Fatal(err)
		}
		c, _ := res.CoverageOf(best.Name())
		cov = c
	}
	b.ReportMetric(cov*100, "coverage%")
}

// The engine comparison: BenchmarkSuiteSerial is the one-goroutine
// reference; BenchmarkSuiteParallel runs the same suite through the
// internal/engine worker pool at increasing worker counts. The suite is
// embarrassingly parallel (ten independent seeded passes), so wall-clock
// time should drop near-linearly until the pool saturates the physical
// cores or the longest single app dominates. Compare with:
//
//	go test -bench 'BenchmarkSuite(Serial|Parallel)' -benchtime 2x .
//
// The result cache is disabled here so every iteration really
// re-simulates (with it on, iterations after the first are free).

// benchSuiteFilters is a representative small bank for the comparison.
var benchSuiteFilters = []string{sim.BestHybrid, "EJ-32x4"}

func BenchmarkSuiteSerial(b *testing.B) {
	filters, err := jetty.ParseAll(benchSuiteFilters)
	if err != nil {
		b.Fatal(err)
	}
	cfg := smp.PaperConfig(4).WithFilters(filters...)
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSuiteSerial(cfg, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteParallel(b *testing.B) {
	workers := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workers = append(workers, n)
	}
	spec := suiteSpec(sweep.Machine{}, benchSuiteFilters)
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runUncached(b, w, spec)
			}
		})
	}
}

// BenchmarkSweep measures the sweep subsystem end to end: a 2×2×3
// cross-product expanded, scheduled on the engine and folded into
// aggregates. The cache is disabled so every iteration really simulates
// every cell; the reported metric is the sweep's best average coverage.
func BenchmarkSweep(b *testing.B) {
	spec := sweep.Spec{
		Name:      "bench",
		Workloads: []string{"Lu", "ch"},
		Machines:  []sweep.Machine{{}, {CPUs: 2}},
		Filters:   []string{"EJ-32x4", "IJ-9x4x7", "HJ(IJ-10x4x7,EJ-32x4)"},
		Scale:     benchScale * 0.5,
	}
	coverageCol := -1
	for i, c := range sweep.Columns {
		if c.Name == "coverage" {
			coverageCol = i
		}
	}
	if coverageCol < 0 {
		b.Fatal("no coverage column")
	}
	var best float64
	for i := 0; i < b.N; i++ {
		res := runUncached(b, 0, spec)
		groups := sweep.GroupBy(res.Metrics, sweep.ByFilter)
		top, err := sweep.BestBy(groups, "coverage")
		if err != nil {
			b.Fatal(err)
		}
		best = top.Columns[coverageCol].Mean
	}
	b.ReportMetric(best*100, "best-coverage%")
}

// BenchmarkSweepFused measures the fused sweep scheduler on its target
// shape: one workload on one machine swept across a 16-variant filter
// axis in "each" mode. The planner fuses all 16 cells onto a single
// simulation pass with every bank attached as concatenated observers;
// the per-cell sub runs the 16 one-filter specs on one uncached engine
// per iteration, so the same cells pay 16 full passes, and the single
// sub is the floor — one simulation of the same workload with one
// filter attached, i.e. the cost a per-cell sweep pays for every one
// of its 16 cells.
// PERFORMANCE.md tracks fused ≤ 2× single. The result cache is disabled
// so every iteration really simulates. From its second iteration on,
// fused replays the stream memo's copy of the Lu stream; fused-fresh
// submits the same 16-member group with a workload seed no earlier pass
// used, so every pass generates its stream. Compare with:
//
//	go test -bench 'BenchmarkSweepFused' -benchtime 2x .
func BenchmarkSweepFused(b *testing.B) {
	axis := sim.AllFigureConfigs()[:16]
	spec := sweep.Spec{
		Name:       "bench-fused",
		Workloads:  []string{"Lu"},
		Filters:    axis,
		FilterMode: sweep.ModeEach,
		Scale:      benchScale * 0.5,
	}
	b.Run("fused", func(b *testing.B) {
		var cells int
		for i := 0; i < b.N; i++ {
			cells = len(runUncached(b, 0, spec).Cells)
		}
		b.ReportMetric(float64(cells), "cells")
	})
	b.Run("fused-fresh", func(b *testing.B) {
		sp, err := workload.ByName("Lu")
		if err != nil {
			b.Fatal(err)
		}
		sp = sp.Scale(spec.Scale)
		for i := 0; i < b.N; i++ {
			freshSeed++
			in := sim.Input{Spec: sp}
			in.Spec.Seed += freshSeed
			base := smp.PaperConfig(4)
			g := engine.GroupTask{Kind: sweep.KindFused}
			for _, name := range axis {
				cfg := base.WithFilters(jetty.MustParse(name))
				g.Members = append(g.Members, engine.GroupMember{Key: sim.Key(in, cfg, 0), Total: in.Total()})
			}
			g.Run = func(ctx context.Context, live []int, report func(uint64)) ([]any, error) {
				plan := sim.Plan{Banks: make([][]jetty.Config, len(live))}
				for k, i := range live {
					plan.Banks[k] = []jetty.Config{jetty.MustParse(axis[i])}
				}
				results, err := sim.Run(ctx, in, base, plan, report)
				out := make([]any, len(results))
				for k, r := range results {
					out[k] = r
				}
				return out, err
			}
			eng := engine.New(engine.Options{CacheEntries: -1})
			for _, j := range eng.SubmitGroup(g) {
				if _, err := j.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			eng.Close()
		}
		b.ReportMetric(float64(len(axis)), "cells")
	})
	b.Run("per-cell", func(b *testing.B) {
		var cells int
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Options{CacheEntries: -1})
			cells = 0
			for _, name := range axis {
				one := spec
				one.Filters = []string{name}
				res, err := sweep.Run(context.Background(), eng, one, nil)
				if err != nil {
					b.Fatal(err)
				}
				cells += len(res.Cells)
			}
			eng.Close()
		}
		b.ReportMetric(float64(cells), "cells")
	})
	b.Run("single", func(b *testing.B) {
		sp, err := workload.ByName("Lu")
		if err != nil {
			b.Fatal(err)
		}
		sp = sp.Scale(spec.Scale)
		cfg := smp.PaperConfig(4).WithFilters(jetty.MustParse(axis[0]))
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunApp(sp, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// freshSeed offsets the workload seed of every fused-fresh pass, across
// all runs of the benchmark in one process, so no pass finds its stream
// memoized.
var freshSeed int64

// BenchmarkFilterProbe measures raw probe throughput of each variant —
// the operation on every snoop's critical path. The miss-* subs time the
// whole per-snoop filter work instead: a probe, then SnoopMiss when the
// snoop was not filtered, over a snoop stream far wider than the filter,
// so exclude-JETTY allocation and replacement run on most snoops.
func BenchmarkFilterProbe(b *testing.B) {
	for _, name := range []string{"EJ-32x4", "IJ-10x4x7", "HJ(IJ-10x4x7,EJ-32x4)"} {
		b.Run(name, func(b *testing.B) {
			f := jetty.MustParse(name).New(2)
			for i := 0; i < 4096; i++ {
				f.BlockAllocated(uint64(i * 3))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := uint64(i) & 0xffff
				f.Probe(u, u/2)
			}
		})
	}
	type snoop struct {
		unit   uint64
		absent bool
	}
	r := rand.New(rand.NewSource(1))
	stream := make([]snoop, 1<<12)
	for i := range stream {
		stream[i] = snoop{unit: uint64(r.Intn(1 << 14)), absent: r.Intn(4) != 0}
	}
	for _, name := range []string{"EJ-32x4", "VEJ-32x4-8", "IJ-10x4x7", "HJ(IJ-10x4x7,EJ-32x4)"} {
		b.Run("miss-"+name, func(b *testing.B) {
			f := jetty.MustParse(name).New(2)
			for i := 0; i < 1024; i++ {
				f.BlockAllocated(uint64(i * 3))
			}
			var filtered int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn := stream[i&(len(stream)-1)]
				if f.Probe(sn.unit, sn.unit/2) {
					filtered++
				} else {
					f.SnoopMiss(sn.unit, sn.unit/2, sn.absent)
				}
			}
			b.ReportMetric(float64(filtered)/float64(b.N)*100, "filtered%")
		})
	}
}

// BenchmarkFilterSafetyAudit times the end-of-run filter audit alone:
// CheckFilterSafety over the fused benchmark's 16-filter bank after one
// Lu pass at BenchmarkSweepFused's scale.
func BenchmarkFilterSafetyAudit(b *testing.B) {
	filters, err := jetty.ParseAll(sim.AllFigureConfigs()[:16])
	if err != nil {
		b.Fatal(err)
	}
	sp, err := workload.ByName("Lu")
	if err != nil {
		b.Fatal(err)
	}
	sp = sp.Scale(benchScale * 0.5)
	sys := smp.New(smp.PaperConfig(4).WithFilters(filters...))
	defer sys.Close()
	recs := make([]trace.Rec, sp.Accesses)
	trace.NewRoundRobin(sp.Source(4)).Fill(recs)
	sys.StepBatch(recs)
	sys.DrainWriteBuffers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.CheckFilterSafety(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessHotPath measures the per-access cost of the simulation
// hot path on the paper's machine with its headline filter (the best
// hybrid), driving a pre-generated 256K-reference Ocean stream, in the
// round-robin interleaver's order, through StepBatch — exactly how the
// batched replay loop feeds the machine. Three modes, all tracked in
// PERFORMANCE.md:
//
//   - run: one complete experiment per iteration (machine construction
//     plus the cold-to-warm replay with all its misses, snoop broadcasts
//     and evictions) — the cost every suite, sweep cell and trace replay
//     actually pays.
//   - steady: the same machine replaying the stream repeatedly after a
//     warm-up pass — the sustained inner loop, which must stay at
//     0 allocs/op (TestStepSteadyStateAllocs asserts the same property).
//   - sampled: steady with an interval sampler attached (8192-access
//     windows). PERFORMANCE.md tracks sampled-vs-steady as the sampling
//     overhead, which must stay under 5%; the 0 allocs/op guarantee
//     holds here too (TestStepSteadyStateAllocsSampled).
func BenchmarkAccessHotPath(b *testing.B) {
	cfg := smp.PaperConfig(4).WithFilters(jetty.MustParse(sim.BestHybrid))
	sp, err := workload.ByName("Ocean")
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]trace.Rec, 1<<18)
	trace.NewRoundRobin(sp.Source(4)).Fill(recs)
	perAccess := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/access")
	}
	b.Run("run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := smp.New(cfg)
			sys.StepBatch(recs)
			sys.Close()
		}
		perAccess(b)
	})
	b.Run("steady", func(b *testing.B) {
		sys := smp.New(cfg)
		defer sys.Close()
		sys.StepBatch(recs) // cold pass: reach steady state before timing
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.StepBatch(recs)
		}
		perAccess(b)
	})
	b.Run("sampled", func(b *testing.B) {
		const interval = 8192
		sys := smp.New(cfg)
		defer sys.Close()
		sm := metrics.NewSampler(metrics.Config{
			Interval: interval,
			Filters:  len(cfg.Filters),
			Capacity: len(recs)/interval + 4,
		})
		sys.SetSampler(sm)
		sys.StepBatch(recs) // cold pass, also grows the window arena
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sm.Rewind() // keep retention bounded; the delta base survives
			sys.StepBatch(recs)
		}
		perAccess(b)
		if len(sm.Windows()) == 0 {
			b.Fatal("sampler emitted no windows")
		}
	})
}

// BenchmarkTraceReplay measures end-to-end trace replay throughput: a
// pre-encoded in-memory JTRC trace decoded and stepped through the
// machine each iteration. Tracked in PERFORMANCE.md.
func BenchmarkTraceReplay(b *testing.B) {
	cfg := smp.PaperConfig(4).WithFilters(jetty.MustParse(sim.BestHybrid))
	sp, err := workload.ByName("Ocean")
	if err != nil {
		b.Fatal(err)
	}
	sp = sp.Scale(0.05)
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, cfg.CPUs, trace.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Run(context.Background(), sim.Input{Spec: sp}, cfg, sim.Plan{Capture: tw}, nil); err != nil {
		b.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	in, err := sim.LoadTrace("bench", buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), sim.Input{Trace: &in}, cfg, sim.Plan{}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(in.Records), "records/op")
}

// BenchmarkSystemStep measures end-to-end simulator throughput with the
// full figure filter bank attached.
func BenchmarkSystemStep(b *testing.B) {
	filters, err := jetty.ParseAll(sim.AllFigureConfigs())
	if err != nil {
		b.Fatal(err)
	}
	cfg := smp.PaperConfig(4).WithFilters(filters...)
	sys := smp.New(cfg)
	sp, _ := workload.ByName("Ocean")
	recs := make([]trace.Rec, 1<<16)
	trace.NewRoundRobin(sp.Source(4)).Fill(recs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		sys.Step(int(r.CPU), trace.Ref{Op: r.Op, Addr: r.Addr})
	}
}
