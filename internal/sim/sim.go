// Package sim is the experiment runner: it ties the synthetic workloads,
// the SMP machine and the JETTY filter bank together and derives the
// paper's metrics (Table 2/3 statistics, per-filter coverage, and the
// Figure 6 energy reductions) from one simulation pass per application.
package sim

import (
	"fmt"

	"jetty/internal/bus"
	"jetty/internal/energy"
	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/smp"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// AppResult holds everything measured for one application run.
type AppResult struct {
	Spec workload.Spec
	CPUs int

	Refs        uint64 // references processed
	MemoryBytes uint64 // allocated footprint (Table 2 "MA")

	L1HitRate      float64
	L2LocalHitRate float64

	Counts energy.Counts // aggregated L2 event counts
	CPU    smp.CPUStats
	Bus    bus.Stats

	RemoteHitFrac     []float64 // Table 3 "Remote Cache Hits" 0..N-1
	SnoopMissOfSnoops float64   // Table 3 "% of Snoop Accesses"
	SnoopMissOfAll    float64   // Table 3 "% of All Accesses"

	FilterNames  []string
	FilterCounts []energy.FilterCounts
	Coverage     []float64

	// Timeline is the time-resolved record of the run: present only when
	// the run was sampled (Plan.Sample). Its
	// windows sum exactly to the aggregates above, and sampling never
	// changes them (both pinned by tests).
	Timeline *metrics.Timeline `json:"Timeline,omitempty"`
}

// Clone returns a deep copy of the result. The engine's content-
// addressed cache hands the same AppResult to every submitter of an
// identical run, so engine-backed paths clone before returning.
func (r AppResult) Clone() AppResult {
	r.RemoteHitFrac = append([]float64(nil), r.RemoteHitFrac...)
	r.FilterNames = append([]string(nil), r.FilterNames...)
	r.FilterCounts = append([]energy.FilterCounts(nil), r.FilterCounts...)
	r.Coverage = append([]float64(nil), r.Coverage...)
	r.Bus.RemoteHits = append([]uint64(nil), r.Bus.RemoteHits...)
	r.Timeline = r.Timeline.Clone()
	return r
}

// CoverageOf returns the coverage of the named filter.
func (r AppResult) CoverageOf(name string) (float64, error) {
	for i, n := range r.FilterNames {
		if n == name {
			return r.Coverage[i], nil
		}
	}
	return 0, fmt.Errorf("sim: filter %q not in run", name)
}

// FilterCountsOf returns the event counts of the named filter.
func (r AppResult) FilterCountsOf(name string) (energy.FilterCounts, error) {
	for i, n := range r.FilterNames {
		if n == name {
			return r.FilterCounts[i], nil
		}
	}
	return energy.FilterCounts{}, fmt.Errorf("sim: filter %q not in run", name)
}

// RunApp simulates one application on the given machine, serially on the
// calling goroutine. The run length is spec.Accesses references (all CPUs
// combined). It returns an error if any filter violated the safety
// requirement or the machine ended incoherent.
//
// RunApp is the reference implementation: the engine-backed paths
// (internal/sweep, cmd/paper, cmd/jettyd) must produce bit-identical
// results.
func RunApp(sp workload.Spec, cfg smp.Config) (AppResult, error) {
	if err := sp.Validate(); err != nil {
		return AppResult{}, err
	}
	if err := cfg.Validate(); err != nil {
		return AppResult{}, err
	}
	sys := smp.New(cfg)
	defer sys.Close()
	stepRecords(sys, trace.NewRoundRobin(sp.Source(cfg.CPUs)), sp.Accesses)
	return finishRun(sys, sp, cfg)
}

// stepRecords steps sys through the next n records of rr in batches
// and returns how many it stepped: fewer than n only once every stream
// is exhausted.
func stepRecords(sys *smp.System, rr *trace.RoundRobin, n uint64) uint64 {
	buf := batchPool.Get().(*[batchRecords]trace.Rec)
	defer batchPool.Put(buf)
	var done uint64
	for done < n {
		k := min(batchRecords, n-done)
		got := rr.Fill(buf[:k])
		sys.StepBatch(buf[:got])
		done += uint64(got)
		if uint64(got) < k {
			break
		}
	}
	return done
}

// finishRun drains, checks and measures a completed simulation pass. It
// is shared by the serial (RunApp) and batched (Run) paths. A
// sampler attached to the machine is flushed after the drain — the tail
// window must include the drained stores or the timeline would not
// conserve the end-of-run totals — and its timeline rides on the result.
// The machine is read-only from the drain on, so the two audits run
// concurrently; a safety violation is reported ahead of an incoherence.
func finishRun(sys *smp.System, sp workload.Spec, cfg smp.Config) (AppResult, error) {
	sys.DrainWriteBuffers()
	if sm := sys.Sampler(); sm != nil {
		sm.Flush(sys)
	}

	safety := make(chan error, 1)
	go func() { safety <- sys.CheckFilterSafety() }()
	coherence := sys.CheckCoherence()
	if err := <-safety; err != nil {
		return AppResult{}, err
	}
	if coherence != nil {
		return AppResult{}, coherence
	}

	res := AppResult{
		Spec:              sp,
		CPUs:              cfg.CPUs,
		Refs:              sys.Refs(),
		MemoryBytes:       sp.MemoryBytes(cfg.CPUs),
		L1HitRate:         sys.L1HitRate(),
		L2LocalHitRate:    sys.L2LocalHitRate(),
		Counts:            sys.EnergyCounts(),
		CPU:               sys.CPUStatsTotal(),
		Bus:               *sys.BusStats(),
		RemoteHitFrac:     sys.BusStats().RemoteHitFractions(),
		SnoopMissOfSnoops: sys.SnoopMissFracOfSnoops(),
		SnoopMissOfAll:    sys.SnoopMissFracOfAll(),
		FilterNames:       sys.FilterNames(),
	}
	for i := range cfg.Filters {
		res.FilterCounts = append(res.FilterCounts, sys.FilterCounts(i))
		res.Coverage = append(res.Coverage, sys.Coverage(i))
	}
	if sm := sys.Sampler(); sm != nil {
		res.Timeline = buildTimeline(sm, cfg)
	}
	return res, nil
}

// windowEnergy returns the per-window baseline energy function for one
// machine: the breakdown every finished timeline's windows carry
// (serial tag/data, 0.18 µm — the paper's energy-optimized L2; other
// modes are derivable from the window counts). Streamed windows
// (SampleOptions.OnWindow) get it too, so live and retained windows are
// identical.
func windowEnergy(cfg smp.Config) func(*metrics.Window) energy.Breakdown {
	org := L2EnergyOrg(cfg)
	costs := energy.Tech180().Costs(org)
	return func(w *metrics.Window) energy.Breakdown {
		return energy.Account(w.Counts, costs, org.Assoc, energy.SerialTagData)
	}
}

// buildTimeline detaches the sampler's windows into a self-contained
// Timeline: fresh slices (the sampler's arenas are reusable), the bank's
// filter names, and each window's baseline energy split (windowEnergy).
func buildTimeline(sm *metrics.Sampler, cfg smp.Config) *metrics.Timeline {
	we := windowEnergy(cfg)
	wins := append([]metrics.Window(nil), sm.Windows()...)
	for i := range wins {
		wins[i].Filters = append([]energy.FilterCounts(nil), wins[i].Filters...)
		wins[i].Energy = we(&wins[i])
	}
	names := make([]string, len(cfg.Filters))
	for i, f := range cfg.Filters {
		names[i] = f.Name()
	}
	return &metrics.Timeline{Interval: sm.Interval(), FilterNames: names, Windows: wins}
}

// RunSuiteSerial is the engine-free reference run of the benchmark
// suite: every Table 2 application at the given access-budget scale, on
// the calling goroutine, in order. It exists so tests (and the suite
// benchmarks) can compare the engine path, a sweep over the same apps,
// against it.
func RunSuiteSerial(cfg smp.Config, scale float64) ([]AppResult, error) {
	var out []AppResult
	for _, sp := range workload.Specs() {
		res, err := RunApp(sp.Scale(scale), cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", sp.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// L2EnergyOrg derives the energy model's cache organization from the
// machine configuration (MOESI needs 3 state bits per unit).
func L2EnergyOrg(cfg smp.Config) energy.CacheOrg {
	return energy.CacheOrg{
		Name:          "L2",
		SizeBytes:     cfg.L2.SizeBytes,
		Assoc:         cfg.L2.Assoc,
		BlockBytes:    cfg.L2.Geom.BlockBytes,
		UnitsPerBlock: cfg.L2.Geom.UnitsPerBlock,
		StateBits:     3,
	}
}

// EnergyReduction holds one filter's Figure 6 numbers for one access mode.
type EnergyReduction struct {
	Filter     string
	Mode       energy.Mode
	OverSnoops float64 // reduction over all snoop-induced energy (Fig. 6a/6c)
	OverAll    float64 // reduction over all L2 energy (Fig. 6b/6d)
	Baseline   energy.Breakdown
	With       energy.Breakdown
}

// EnergyReductions computes the energy savings of every filter in the run
// for the given tag/data access mode, exactly as Figure 6 reports them:
// filter probe/update energy charged, filtered snoops skipping the L2 tag
// probe (and, in parallel mode, the concurrent data-way reads).
func EnergyReductions(res AppResult, cfg smp.Config, tech energy.Tech, mode energy.Mode) []EnergyReduction {
	org := L2EnergyOrg(cfg)
	costs := tech.Costs(org)
	base := energy.Account(res.Counts, costs, org.Assoc, mode)

	unitBits := cfg.L2.Geom.UnitAddrBits()
	cntBits := jetty.CntBitsFor(cfg.L2.Blocks())

	var out []EnergyReduction
	for i, name := range res.FilterNames {
		fcost := cfg.Filters[i].Costs(tech, unitBits, cntBits)
		with := energy.AccountFiltered(res.Counts, costs, org.Assoc, mode, res.FilterCounts[i], fcost)
		out = append(out, EnergyReduction{
			Filter:     name,
			Mode:       mode,
			OverSnoops: energy.Reduction(base.SnoopTotal(), with.SnoopTotal()),
			OverAll:    energy.Reduction(base.Total(), with.Total()),
			Baseline:   base,
			With:       with,
		})
	}
	return out
}

// Average returns the arithmetic mean, 0 for empty input (the paper's
// "AVG" columns are arithmetic means over the ten applications).
func Average(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
