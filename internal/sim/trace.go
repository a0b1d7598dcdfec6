package sim

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"jetty/internal/engine"
	"jetty/internal/smp"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// Trace replay: any filter configuration can be evaluated against a
// stored reference stream instead of a live generator. A trace recorded
// from a run (Plan.Capture, `tracecat record`, or an upload to jettyd)
// replays bit-identically because the file holds exactly the
// sequence of references the machine steps, and the machine's stepping
// is a pure function of that sequence plus the configuration.

// TraceInput is a stored trace ready to replay: the raw file bytes plus
// the summary fields scheduling needs. Build one with LoadTrace.
type TraceInput struct {
	// Name labels results (the meta's app name, a filename, ...).
	Name string
	// Digest is the content address of Data (trace.Digest).
	Digest string
	// CPUs, Records and Compressed come from the file's header and
	// framing.
	CPUs       int
	Records    uint64
	Compressed bool
	// Data is the complete trace file.
	Data []byte
}

// LoadTrace validates raw trace-file bytes (header, framing, record
// count) and content-addresses them. name may be empty: the metadata's
// app name (or "trace") is used.
func LoadTrace(name string, data []byte) (TraceInput, error) {
	sum, err := trace.Summarize(bytes.NewReader(data))
	if err != nil {
		return TraceInput{}, err
	}
	if sum.Records == 0 {
		return TraceInput{}, fmt.Errorf("sim: trace holds no records")
	}
	digest, err := trace.Digest(bytes.NewReader(data))
	if err != nil {
		return TraceInput{}, err
	}
	if name == "" {
		name = sum.Meta.App
	}
	if name == "" {
		name = "trace"
	}
	return TraceInput{
		Name:       name,
		Digest:     digest,
		CPUs:       sum.CPUs,
		Records:    sum.Records,
		Compressed: sum.Compressed,
		Data:       data,
	}, nil
}

// pseudoSpec labels a replay's AppResult. A trace has no generator, so
// every Spec field except the name and reference count is zero (and
// MemoryBytes reports 0: a stored stream has no allocation table).
func (in TraceInput) pseudoSpec() workload.Spec {
	return workload.Spec{Name: in.Name, Accesses: in.Records}
}

// replayBatchRecords is the record-buffer size of the batched replay
// loop: large enough to amortize decode framing, small enough to stay
// cache-resident and keep cancellation latency low.
const replayBatchRecords = 8192

// replayBufKey keys the reusable replay record buffer in an engine
// worker's Scratch.
type replayBufKey struct{}

// replayBuf returns a replay record buffer, reusing the per-worker one
// when the run executes on an engine worker (engine.ScratchFrom).
func replayBuf(ctx context.Context) []trace.Rec {
	sc := engine.ScratchFrom(ctx)
	if sc == nil {
		return make([]trace.Rec, replayBatchRecords)
	}
	if buf, ok := sc.Get(replayBufKey{}).([]trace.Rec); ok {
		return buf
	}
	buf := make([]trace.Rec, replayBatchRecords)
	sc.Put(replayBufKey{}, buf)
	return buf
}

// replay steps a stored trace through sys in recorded order, with the
// same cooperative cancellation and progress reporting as generated
// runs. Replaying a trace captured from a run on the same configuration
// reproduces that run's statistics exactly (TestTraceReplayMatchesDirect
// enforces it).
//
// The loop is batched: each JTRC chunk is decoded directly into a
// reusable record buffer (per engine worker when running on the engine)
// and stepped through the machine in recorded order, with no per-record
// Source indirection. Stepping in recorded order is exactly what the
// Source-driven round-robin path does for a round-robin recording, so
// the batching is invisible in the results.
func replay(ctx context.Context, sys *smp.System, rd *trace.Reader, records uint64, report func(done uint64)) error {
	buf := replayBuf(ctx)
	var done uint64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := rd.ReadBatch(buf)
		sys.StepBatch(buf[:n])
		done += uint64(n)
		if report != nil && n > 0 {
			report(done)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if err := rd.Err(); err != nil {
		return err
	}
	if got := sys.Refs(); got != records {
		return fmt.Errorf("sim: replayed %d of the trace's %d records", got, records)
	}
	return nil
}
