package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"jetty/internal/engine"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// stripLabel zeroes the fields that legitimately differ between a
// generator-driven run and its trace replay: the workload spec (a
// replay has only a pseudo-spec) and the footprint derived from it.
// Everything else — every counter, rate, histogram and coverage — must
// be identical.
func stripLabel(r AppResult) AppResult {
	r.Spec = workload.Spec{}
	r.MemoryBytes = 0
	return r
}

// recordSpec returns the trace trace.Record writes of sp's first
// Accesses references on a cpus-CPU machine: the stream a run of sp
// steps.
func recordSpec(t testing.TB, sp workload.Spec, cpus int, opts trace.WriterOptions) []byte {
	t.Helper()
	var file bytes.Buffer
	n, err := trace.Record(&file, sp.Source(cpus), sp.Accesses, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n != sp.Accesses {
		t.Fatalf("recorded %d references, want %d", n, sp.Accesses)
	}
	return file.Bytes()
}

// TestTraceReplayMatchesDirect is the acceptance test of the trace
// pipeline: exporting a workload to a v1 trace file and replaying it
// through the simulator produces statistics identical to the direct
// in-memory run, for both compression modes, with a full filter bank
// attached.
func TestTraceReplayMatchesDirect(t *testing.T) {
	cfg, err := bankConfig(4, []string{"HJ(IJ-10x4x7,EJ-32x4)", "EJ-32x4", "IJ-9x4x7"})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := workload.Lookup("Database")
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.Scale(0.05)

	direct, err := RunApp(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, compress := range []bool{false, true} {
		// Record the run's reference stream into a trace file, replay
		// it and demand identical statistics.
		file := recordSpec(t, sp, cfg.CPUs, trace.WriterOptions{Compress: compress, Meta: trace.Meta{App: sp.Name}})
		in, err := LoadTrace("", file)
		if err != nil {
			t.Fatal(err)
		}
		if in.Name != sp.Name || in.CPUs != cfg.CPUs || in.Records != direct.Refs {
			t.Fatalf("LoadTrace = %s/%d cpus/%d records", in.Name, in.CPUs, in.Records)
		}
		replayed, err := runSingle(context.Background(), Input{Trace: &in}, cfg, Plan{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripLabel(replayed), stripLabel(direct)) {
			t.Errorf("compress=%v: replay diverged from the direct run\ndirect: %+v\nreplay: %+v",
				compress, stripLabel(direct), stripLabel(replayed))
		}
		if replayed.Spec.Name != sp.Name {
			t.Errorf("replay label = %q", replayed.Spec.Name)
		}
	}
}

// TestTraceReplayThroughEngine exercises the engine path: identical
// replays share one execution and the second submission is a cache hit.
func TestTraceReplayThroughEngine(t *testing.T) {
	cfg, err := bankConfig(4, []string{"EJ-32x4"})
	if err != nil {
		t.Fatal(err)
	}
	sp := workload.Throughput().Scale(0.02)

	in, err := LoadTrace("", recordSpec(t, sp, cfg.CPUs, trace.WriterOptions{Meta: trace.Meta{App: sp.Name}}))
	if err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.Options{})
	defer eng.Close()
	first, err := waitResult(context.Background(), submitOne(eng, Input{Trace: &in}, cfg, SampleOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	again, err := waitResult(context.Background(), submitOne(eng, Input{Trace: &in}, cfg, SampleOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("engine replays of the same trace differ")
	}
}

func TestTraceFingerprint(t *testing.T) {
	cfgA, err := bankConfig(4, []string{"EJ-32x4"})
	if err != nil {
		t.Fatal(err)
	}
	cfgB := cfgA
	cfgB.L2.SizeBytes *= 2
	fpA := Key(Input{Trace: &TraceInput{Digest: "d1"}}, cfgA, 0)
	if fpA != Key(Input{Trace: &TraceInput{Digest: "d1"}}, cfgA, 0) {
		t.Error("fingerprint not deterministic")
	}
	if fpA == Key(Input{Trace: &TraceInput{Digest: "d2"}}, cfgA, 0) {
		t.Error("digest not covered by fingerprint")
	}
	if fpA == Key(Input{Trace: &TraceInput{Digest: "d1"}}, cfgB, 0) {
		t.Error("config not covered by fingerprint")
	}
	if fpA == Key(Input{Spec: workload.Throughput()}, cfgA, 0) {
		t.Error("trace and spec fingerprints collide")
	}
}

func TestRunTraceRejectsNarrowMachine(t *testing.T) {
	cfg, err := bankConfig(2, []string{"EJ-32x4"})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if _, err := trace.Record(&file, workload.Throughput().Scale(0.001).Source(4), 4*100, trace.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	in, err := LoadTrace("wide", file.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSingle(context.Background(), Input{Trace: &in}, cfg, Plan{}, nil); err == nil {
		t.Error("4-cpu trace accepted on a 2-cpu machine")
	}
}

func TestLoadTraceRejectsGarbage(t *testing.T) {
	if _, err := LoadTrace("x", []byte("not a trace")); err == nil {
		t.Error("garbage accepted")
	}
	var empty bytes.Buffer
	w, err := trace.NewWriter(&empty, 2, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrace("x", empty.Bytes()); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestCaptureDigestGolden pins the exact bytes trace.Record writes of a
// short fixed run's stream: 3 CPUs, so the round-robin order crosses
// batch boundaries mid-round, and a length that ends mid-round. The
// digest is that of the records a run of the spec steps, in its order;
// any change to the order, masking or count of recorded references
// changes it.
func TestCaptureDigestGolden(t *testing.T) {
	const want = "ca63b0b99646ad54406c03347df5db8d61cdabb18aa38c622b250b3173f2ede8"
	sp, err := workload.Lookup("Lu")
	if err != nil {
		t.Fatal(err)
	}
	sp.Accesses = 20_000
	file := recordSpec(t, sp, 3, trace.WriterOptions{ChunkRecords: 1000, Meta: trace.Meta{App: sp.Name}})
	got, err := trace.Digest(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("capture digest = %s, want %s", got, want)
	}
}
