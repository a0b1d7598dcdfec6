package sim

import (
	"bytes"
	"fmt"
	"io"

	"jetty/internal/trace"
	"jetty/internal/workload"
)

// Trace replay: any filter configuration can be evaluated against a
// stored reference stream instead of a live generator. The trace
// trace.Record writes of a generator's first n references (`tracecat
// record`, `jettysim -capture`) replays a run of n references
// bit-identically, because the file holds exactly the sequence of
// references the run steps, and the machine's stepping is a pure
// function of that sequence plus the configuration.

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

// decoded returns the producer of a stored trace's batches: each
// decodes the next records into buf in recorded order. Record writes a
// generator's records in the order a run steps them, so its trace of a
// run's length replays that run bit for bit
// (TestTraceReplayMatchesDirect).
func decoded(rd *trace.Reader, buf []trace.Rec) func() ([]trace.Rec, error) {
	return func() ([]trace.Rec, error) {
		n, err := rd.ReadBatch(buf)
		if err == io.EOF {
			err = nil
		}
		return buf[:n], err
	}
}
