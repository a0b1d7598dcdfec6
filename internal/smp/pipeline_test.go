package smp

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"jetty/internal/energy"
	"jetty/internal/trace"
)

// absentFilter claims every unit absent: the unsafe filter the
// per-snoop audit exists to catch.
type absentFilter struct{ probes uint64 }

func (f *absentFilter) Name() string                  { return "ABSENT" }
func (f *absentFilter) Probe(_, _ uint64) bool        { f.probes++; return true }
func (f *absentFilter) Peek(_, _ uint64) bool         { return true }
func (f *absentFilter) SnoopMiss(_, _ uint64, _ bool) {}
func (f *absentFilter) Fill(_, _ uint64)              {}
func (f *absentFilter) BlockAllocated(_ uint64)       {}
func (f *absentFilter) BlockEvicted(_ uint64)         {}
func (f *absentFilter) Reset()                        { f.probes = 0 }
func (f *absentFilter) Counts() energy.FilterCounts {
	return energy.FilterCounts{Probes: f.probes, Filtered: f.probes}
}

// plantAbsentFilter replaces bank position 0 of node cpu with an
// absentFilter.
func plantAbsentFilter(s *System, cpu int) {
	b := &s.pipes[cpu].bank
	var nb nodeBank
	for i, f := range b.filters {
		if i == 0 {
			f = &absentFilter{}
		}
		nb.add(f)
	}
	*b = nb
}

// TestFilterSafetyAuditThroughPipeline drives a machine with one lying
// filter through every driver: the per-snoop audit must count the same
// FilteredHits whether the banks run inline (Step) or on the companion
// (StepBatch, whole or in interleaved batches), and CheckFilterSafety
// must fail on all of them.
func TestFilterSafetyAuditThroughPipeline(t *testing.T) {
	recs := hotPathRecs(1 << 14)
	var want uint64
	for i, d := range drivers {
		s := New(hotPathConfig())
		plantAbsentFilter(s, 1)
		d.drive(s, recs)
		s.DrainWriteBuffers()
		if pipelined := s.pipes[0].full != nil; pipelined != (d.name != "Step") {
			t.Errorf("%s: companion started = %v", d.name, pipelined)
		}
		got := s.FilterCounts(0).FilteredHits
		if i == 0 {
			want = got
			if want == 0 {
				t.Fatal("the lying filter never filtered a present unit; the audit test is vacuous")
			}
		} else if got != want {
			t.Errorf("%s: FilteredHits = %d, inline Step counted %d", d.name, got, want)
		}
		err := s.CheckFilterSafety()
		if err == nil || !strings.Contains(err.Error(), "filtered") {
			t.Errorf("%s: CheckFilterSafety = %v, want the per-snoop audit's error", d.name, err)
		}
		s.Close()
	}
}

// waitGoroutines polls until at most n goroutines are left, collecting
// garbage in between so pending cleanups run.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want at most %d", runtime.NumGoroutine(), n)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCompanionsExit waits until every node's companion has exited,
// which closes its free channel, collecting garbage in between so a
// dropped machine's cleanup runs.
func waitCompanionsExit(t *testing.T, pipes []filterPipe) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := range pipes {
		for open := true; open; {
			select {
			case _, open = <-pipes[i].free:
			case <-time.After(5 * time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("cpu%d's companion is still running", i)
				}
				runtime.GC()
			}
		}
	}
}

// TestCloseStopsCompanion pins the lifecycle: every node's companion
// starts with the first pipelined batch, Close stops all of them before
// returning, a second Close is a no-op, and a closed machine keeps
// stepping with its events applied inline and identical results.
func TestCloseStopsCompanion(t *testing.T) {
	cfg := hotPathConfig()
	recs := hotPathRecs(1 << 13)
	base := runtime.NumGoroutine()

	s := New(cfg)
	s.StepBatch(recs)
	for i := range s.pipes {
		if s.pipes[i].full == nil {
			t.Fatalf("StepBatch started no companion for cpu%d", i)
		}
	}
	during := runtime.NumGoroutine()
	s.Close()
	for i := range s.pipes {
		select {
		case _, open := <-s.pipes[i].free:
			if open {
				t.Fatalf("cpu%d's companion returned a chunk after Close", i)
			}
		default:
			t.Fatalf("cpu%d's companion still running after Close", i)
		}
	}
	// Goroutines left over from earlier tests may exit at any time, so
	// counts are compared with upper bounds only.
	waitGoroutines(t, base)
	if after := runtime.NumGoroutine(); during < after+cfg.CPUs {
		t.Fatalf("%d goroutines with %d companions running, %d after Close", during, cfg.CPUs, after)
	}
	s.Close()
	s.StepBatch(recs)
	s.DrainWriteBuffers()

	inline := New(cfg)
	for i := 0; i < 2; i++ {
		drivers[0].drive(inline, recs)
	}
	inline.DrainWriteBuffers()
	if a, b := machineSnapshot(t, s), machineSnapshot(t, inline); !reflect.DeepEqual(a, b) {
		t.Fatalf("closed machine diverged from inline Step:\nclosed: %+v\ninline: %+v", a, b)
	}
	waitGoroutines(t, base)
}

// TestDroppedSystemReleasesCompanion covers the backstop: a machine
// dropped without Close must not leak any node's companion goroutine.
// The test keeps only the pipes, which never reference the machine.
func TestDroppedSystemReleasesCompanion(t *testing.T) {
	base := runtime.NumGoroutine()
	pipes := func() []filterPipe {
		s := New(hotPathConfig())
		s.StepBatch(hotPathRecs(1 << 13))
		for i := range s.pipes {
			if s.pipes[i].full == nil {
				t.Fatalf("StepBatch started no companion for cpu%d", i)
			}
		}
		return s.pipes
	}()
	waitCompanionsExit(t, pipes)
	waitGoroutines(t, base)
}

// TestEventLogSpillsInline fills the log past a chunk outside
// StepBatch: a 64-CPU machine drains full write buffers of shared lines,
// every drain snooping 63 nodes. The full chunks must be applied inline,
// with no companion, and every snoop must still reach every filter.
func TestEventLogSpillsInline(t *testing.T) {
	cfg := hotPathConfig()
	cfg.CPUs = 64
	cfg.WBEntries = 32
	s := New(cfg)
	for cpu := 0; cpu < cfg.CPUs; cpu++ {
		for i := 0; i < cfg.WBEntries; i++ {
			s.Step(cpu, trace.Ref{Op: trace.Write, Addr: uint64(i) << 6})
		}
	}
	s.DrainWriteBuffers()
	snoops := s.EnergyCounts().Snoops
	if snoops < 4*chunkEvents {
		t.Fatalf("only %d snoops; the drain did not overflow a chunk", snoops)
	}
	for i := range s.nodes {
		if s.nodes[i].log.n != 0 || s.pipes[i].full != nil {
			t.Fatalf("drain left %d events in cpu%d's log (companion started: %v)",
				s.nodes[i].log.n, i, s.pipes[i].full != nil)
		}
	}
	for i := range cfg.Filters {
		if p := s.FilterCounts(i).Probes; p != snoops {
			t.Errorf("%s: %d probes, %d snoops", s.FilterNames()[i], p, snoops)
		}
	}
	if err := s.CheckFilterSafety(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// inFlight returns how many chunks the machine has handed to companions
// and not taken back.
func inFlight(s *System) int {
	n := 0
	for i := range s.nodes {
		n += s.nodes[i].log.inFlight
	}
	return n
}

// TestFilterReadsBetweenBatchesMatchStep pins the join rule: StepBatch
// leaves the pipeline on when it returns, so everything that reads
// filter state joins the companions first. Between batches, with no
// DrainWriteBuffers, FilterCounts, Coverage and CheckFilterSafety must
// see exactly what they see on a machine driven by inline Step, and a
// Step after a StepBatch must leave no chunk in flight.
func TestFilterReadsBetweenBatchesMatchStep(t *testing.T) {
	cfg := hotPathConfig()
	recs := hotPathRecs(1 << 15)
	batched, inline := New(cfg), New(cfg)
	defer batched.Close()
	defer inline.Close()
	const batches = 4
	size := len(recs) / batches
	for b := 0; b < batches; b++ {
		part := recs[b*size : (b+1)*size]
		batched.StepBatch(part)
		drivers[0].drive(inline, part)
		if inFlight(batched) == 0 {
			t.Fatalf("batch %d: no chunk in flight after StepBatch; the test is vacuous", b)
		}
		for i := range cfg.Filters {
			if got, want := batched.FilterCounts(i), inline.FilterCounts(i); got != want {
				t.Fatalf("batch %d, filter %d: FilterCounts = %+v, inline Step has %+v", b, i, got, want)
			}
			if got, want := batched.Coverage(i), inline.Coverage(i); got != want {
				t.Fatalf("batch %d, filter %d: Coverage = %v, inline Step has %v", b, i, got, want)
			}
		}
		if n := inFlight(batched); n != 0 {
			t.Fatalf("batch %d: %d chunks still in flight after FilterCounts", b, n)
		}
		if err := batched.CheckFilterSafety(); err != nil {
			t.Fatal(err)
		}
	}

	batched.StepBatch(recs[:size])
	r := recs[size]
	batched.Step(int(r.CPU), trace.Ref{Op: r.Op, Addr: r.Addr})
	if n := inFlight(batched); n != 0 || batched.pipelined {
		t.Fatalf("Step after StepBatch left %d chunks in flight (pipeline on: %v)", n, batched.pipelined)
	}
	for i := range batched.nodes {
		if n := batched.nodes[i].log.n; n != 0 {
			t.Fatalf("Step after StepBatch left %d events in cpu%d's log", n, i)
		}
	}
}
