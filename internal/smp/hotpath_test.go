package smp

import (
	"reflect"
	"testing"

	"jetty/internal/cache"
	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/trace"
)

// hotPathConfig is a small machine with one filter of every family
// attached, sized so the reference mix below forces L2 evictions (and
// with them writebacks, snoop broadcasts and filter learning) while a
// test still runs in milliseconds.
func hotPathConfig() Config {
	cfg := PaperConfig(4)
	cfg.L2.SizeBytes = 1 << 16 // 64 KB: the mix below overflows it
	cfg.L1.SizeBytes = 1 << 13
	return cfg.WithFilters(
		jetty.MustParse("EJ-32x4"),
		jetty.MustParse("VEJ-32x4-8"),
		jetty.MustParse("IJ-9x4x7"),
		jetty.MustParse("HJ(IJ-10x4x7,EJ-32x4)"),
	)
}

// hotPathRecs generates a deterministic mixed reference stream: ~30%
// stores, per-CPU private regions plus a shared region (cross-CPU
// sharing drives snoop hits, upgrades and invalidations), and a
// footprint well past the L2 so evictions keep happening in steady
// state.
func hotPathRecs(n int) []trace.Rec {
	recs := make([]trace.Rec, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range recs {
		// xorshift64* — deterministic, no math/rand allocation.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		r := state * 0x2545f4914f6cdd1d
		cpu := int32(i & 3)
		addr := (r >> 8) & 0x3fffff // 4 MB footprint >> 64 KB L2
		if r&0xf < 5 {
			// Shared region: all CPUs contend on 64 KB of hot lines.
			addr &= 0xffff
		} else {
			// Private region per CPU.
			addr |= uint64(cpu) << 24
		}
		op := trace.Read
		if r&0x1f < 9 {
			op = trace.Write
		}
		recs[i] = trace.Rec{Addr: addr, CPU: cpu, Op: op}
	}
	return recs
}

// TestStepSteadyStateAllocs pins the hot-path overhaul's allocation
// guarantee: once a machine exists, stepping references — including L2
// evictions, snoop broadcasts, filter probes and filter learning —
// allocates nothing. PERFORMANCE.md tracks the matching benchmark
// number (BenchmarkAccessHotPath/steady).
func TestStepSteadyStateAllocs(t *testing.T) {
	sys := New(hotPathConfig())
	recs := hotPathRecs(1 << 15)
	sys.StepBatch(recs) // warm-up: reach steady state

	if avg := testing.AllocsPerRun(10, func() { sys.StepBatch(recs) }); avg != 0 {
		t.Fatalf("steady-state StepBatch allocates: %v allocs per batch (want 0)", avg)
	}

	// The eviction path must have actually run for the assertion to mean
	// anything.
	if ev := sys.EnergyCounts().TagEvictions; ev == 0 {
		t.Fatal("reference mix caused no L2 evictions; the alloc assertion is vacuous")
	}
	if sn := sys.EnergyCounts().Snoops; sn == 0 {
		t.Fatal("reference mix caused no snoops; the alloc assertion is vacuous")
	}
}

// TestStepSteadyStateAllocsSampled is the sampled twin: with an interval
// sampler attached, windowed emission must also be allocation-free in
// steady state — the windows and their per-filter slices come from the
// sampler's pre-grown arenas. PERFORMANCE.md tracks the matching
// overhead benchmark (BenchmarkAccessHotPath/sampled).
func TestStepSteadyStateAllocsSampled(t *testing.T) {
	cfg := hotPathConfig()
	sys := New(cfg)
	recs := hotPathRecs(1 << 15)

	// Capacity covers every window the warm-up and the measured runs will
	// emit, so steady state never grows the arena.
	const interval = 1 << 12
	windows := (len(recs) * 16 / interval) + 4
	sm := metrics.NewSampler(metrics.Config{
		Interval: interval,
		Filters:  len(cfg.Filters),
		Capacity: windows,
	})
	sys.SetSampler(sm)
	sys.StepBatch(recs) // warm-up: reach steady state

	if avg := testing.AllocsPerRun(10, func() { sys.StepBatch(recs) }); avg != 0 {
		t.Fatalf("sampled steady-state StepBatch allocates: %v allocs per batch (want 0)", avg)
	}

	// The sampler must have actually emitted — and kept emitting during
	// the measured runs — or the assertion is vacuous.
	wins := sm.Windows()
	if len(wins) < 12*len(recs)/interval {
		t.Fatalf("sampler emitted only %d windows", len(wins))
	}
	var snoops uint64
	for i := range wins {
		snoops += wins[i].Counts.Snoops
	}
	if snoops == 0 {
		t.Fatal("no snoops crossed a window; the sampled assertion is vacuous")
	}
}

// TestStepAllocs covers the one-reference entry point: once the machine
// is warm, Step — a one-record batch held on the caller's stack, its
// filter events applied inline — allocates nothing.
func TestStepAllocs(t *testing.T) {
	sys := New(hotPathConfig())
	defer sys.Close()
	recs := hotPathRecs(1 << 12)
	step := func() {
		for _, r := range recs {
			sys.Step(int(r.CPU), trace.Ref{Op: r.Op, Addr: r.Addr})
		}
	}
	step() // warm-up: reach steady state

	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Fatalf("steady-state Step allocates: %v allocs per run (want 0)", avg)
	}
}

// TestDrainWriteBuffersSteadyAllocs covers the end-of-run drain: after
// the first call (which may size the reusable drain scratch), draining
// allocates nothing.
func TestDrainWriteBuffersSteadyAllocs(t *testing.T) {
	sys := New(hotPathConfig())
	recs := hotPathRecs(1 << 12)
	sys.StepBatch(recs)
	sys.DrainWriteBuffers() // sizes the per-CPU drain scratch

	if avg := testing.AllocsPerRun(10, func() {
		sys.StepBatch(recs)
		sys.DrainWriteBuffers()
	}); avg != 0 {
		t.Fatalf("steady-state drain allocates: %v allocs per run (want 0)", avg)
	}
}

// machineSnapshot collects everything a run can observe about a system.
func machineSnapshot(t *testing.T, s *System) map[string]any {
	t.Helper()
	snap := map[string]any{
		"refs":  s.Refs(),
		"cpu":   s.CPUStatsTotal(),
		"l2c":   s.EnergyCounts(),
		"bus":   *s.BusStats(),
		"names": s.FilterNames(),
	}
	for i := range s.Config().Filters {
		snap["filter"+s.FilterNames()[i]] = s.FilterCounts(i)
	}
	units := map[uint64]string{}
	for i := range s.nodes {
		n := &s.nodes[i]
		n.l2.ForEachValidUnit(func(unit uint64, st cache.State) {
			units[uint64(n.id)<<40|unit] = st.String()
		})
	}
	snap["units"] = units
	return snap
}

// drivers are the three ways to feed a machine a record stream: Step
// applies each reference's filter events inline; StepBatch, over the
// whole stream or over 1,000-record batches the round-robin interleaver
// fills from per-CPU streams, hands them to the companion goroutines.
// hotPathRecs rotates CPUs 0..3, the order the interleaver reproduces.
var drivers = []struct {
	name  string
	drive func(s *System, recs []trace.Rec)
}{
	{"Step", func(s *System, recs []trace.Rec) {
		for _, r := range recs {
			s.Step(int(r.CPU), trace.Ref{Op: r.Op, Addr: r.Addr})
		}
	}},
	{"StepBatch", func(s *System, recs []trace.Rec) { s.StepBatch(recs) }},
	{"RoundRobin", func(s *System, recs []trace.Rec) {
		perCPU := make([][]trace.Ref, s.Config().CPUs)
		for _, r := range recs {
			perCPU[r.CPU] = append(perCPU[r.CPU], trace.Ref{Op: r.Op, Addr: r.Addr})
		}
		stepAll(s, trace.NewSliceSource(perCPU...), 1000)
	}},
}

// stepAll steps s through src's streams, interleaved round-robin, in
// StepBatch batches of the given size.
func stepAll(s *System, src trace.Source, batch int) {
	rr := trace.NewRoundRobin(src)
	buf := make([]trace.Rec, batch)
	for {
		n := rr.Fill(buf)
		s.StepBatch(buf[:n])
		if n < batch {
			return
		}
	}
}

// TestStepBatchMatchesStep pins the pipelined drivers to inline Step:
// the same stream through StepBatch whole and in interleaved batches
// must leave every machine in an identical observable state and, with a
// sampler attached, emit identical windows, per-filter columns
// included. The replay and golden suites depend on this equivalence.
func TestStepBatchMatchesStep(t *testing.T) {
	cfg := hotPathConfig()
	recs := hotPathRecs(1 << 15)
	for _, sampled := range []bool{false, true} {
		var ref map[string]any
		var refWins []metrics.Window
		for _, d := range drivers {
			s := New(cfg)
			var sm *metrics.Sampler
			if sampled {
				sm = metrics.NewSampler(metrics.Config{Interval: 1000, Filters: len(cfg.Filters)})
				s.SetSampler(sm)
			}
			d.drive(s, recs)
			s.DrainWriteBuffers()
			if sm != nil {
				sm.Flush(s)
			}
			if err := s.CheckFilterSafety(); err != nil {
				t.Fatal(err)
			}
			if err := s.CheckCoherence(); err != nil {
				t.Fatal(err)
			}
			snap := machineSnapshot(t, s)
			s.Close()
			if ref == nil {
				ref = snap
				if sm != nil {
					refWins = sm.Windows()
				}
				continue
			}
			if !reflect.DeepEqual(ref, snap) {
				t.Fatalf("sampled=%v: %s diverged from Step:\n step: %+v\n %s: %+v", sampled, d.name, ref, d.name, snap)
			}
			if sm != nil && !reflect.DeepEqual(refWins, sm.Windows()) {
				t.Fatalf("%s windows diverged from Step's", d.name)
			}
		}
		if sampled && len(refWins) < len(recs)/1000 {
			t.Fatalf("sampler emitted only %d windows", len(refWins))
		}
	}
}
