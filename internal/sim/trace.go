package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"jetty/internal/engine"
	"jetty/internal/smp"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// Trace replay: any filter configuration can be evaluated against a
// stored reference stream instead of a live generator. A trace recorded
// from a run (RunAppCapturedCtx, `tracecat record`, or an upload to
// jettyd) replays bit-identically because the file holds exactly the
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

// TraceFingerprint is the content address of one replay run: a SHA-256
// over the trace digest and the canonical machine configuration. A
// replayed result is a pure function of those two values, so the
// fingerprint is a sound engine cache and deduplication key — two
// clients uploading byte-identical traces share one execution.
func TraceFingerprint(digest string, cfg smp.Config) string {
	b, err := json.Marshal(struct {
		Trace  string
		Config smp.Config
	}{digest, cfg})
	if err != nil {
		panic(fmt.Sprintf("sim: trace fingerprint encoding: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
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

// RunTraceCtx replays a stored trace through the given machine, with the
// same cooperative cancellation and progress reporting as RunAppCtx. The
// machine must be at least as wide as the trace. Replaying a trace
// captured from a run on the same configuration reproduces that run's
// statistics exactly (TestTraceReplayMatchesDirect enforces it).
//
// The replay loop is batched: each JTRC chunk is decoded directly into a
// reusable record buffer (per engine worker when running on the engine)
// and stepped through the machine in recorded order, with no per-record
// Source indirection. Stepping in recorded order is exactly what the
// Source-driven round-robin path does for a round-robin recording, so
// the batching is invisible in the results.
func RunTraceCtx(ctx context.Context, in TraceInput, cfg smp.Config, report func(done uint64)) (AppResult, error) {
	return runTrace(ctx, in, cfg, SampleOptions{}, report)
}

// RunTraceSampledCtx is RunTraceCtx with an interval sampler attached:
// the replayed result carries a Timeline, exactly like a sampled
// generator run (the trace fixes the stream, so the timeline is as
// reproducible as the replay itself).
func RunTraceSampledCtx(ctx context.Context, in TraceInput, cfg smp.Config, opt SampleOptions, report func(done uint64)) (AppResult, error) {
	return runTrace(ctx, in, cfg, opt, report)
}

func runTrace(ctx context.Context, in TraceInput, cfg smp.Config, opt SampleOptions, report func(done uint64)) (AppResult, error) {
	if err := cfg.Validate(); err != nil {
		return AppResult{}, err
	}
	rd, err := trace.NewReader(bytes.NewReader(in.Data))
	if err != nil {
		return AppResult{}, err
	}
	if rd.CPUs() > cfg.CPUs {
		return AppResult{}, fmt.Errorf("sim: trace has %d cpus but the machine only %d", rd.CPUs(), cfg.CPUs)
	}
	sys := smp.New(cfg)
	defer sys.Close()
	if opt.enabled() {
		sm, err := opt.newSampler(cfg, in.Records)
		if err != nil {
			return AppResult{}, err
		}
		sys.SetSampler(sm)
	}
	buf := replayBuf(ctx)
	var done uint64
	for {
		if err := ctx.Err(); err != nil {
			return AppResult{}, err
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
			return AppResult{}, err
		}
	}
	if err := rd.Err(); err != nil {
		return AppResult{}, err
	}
	if got := sys.Refs(); got != in.Records {
		return AppResult{}, fmt.Errorf("sim: replayed %d of the trace's %d records", got, in.Records)
	}
	return finishRun(sys, in.pseudoSpec(), cfg)
}

// TraceTask wraps one replay as an engine task, content-addressed by
// TraceFingerprint and reporting progress in records.
func TraceTask(in TraceInput, cfg smp.Config) engine.Task {
	return engine.Task{
		Key:   TraceFingerprint(in.Digest, cfg),
		Kind:  KindTrace,
		Total: in.Records,
		Run: func(ctx context.Context, report func(uint64)) (any, error) {
			res, err := RunTraceCtx(ctx, in, cfg, report)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	}
}

// SampledTraceTask wraps one sampled replay as an engine task (key
// extended with the interval, like SampledTask).
func SampledTraceTask(in TraceInput, cfg smp.Config, opt SampleOptions) engine.Task {
	return engine.Task{
		Key:   SampledKey(TraceFingerprint(in.Digest, cfg), opt.Interval),
		Kind:  KindTrace,
		Total: in.Records,
		Run: func(ctx context.Context, report func(uint64)) (any, error) {
			res, err := RunTraceSampledCtx(ctx, in, cfg, opt, report)
			if err != nil {
				return nil, err
			}
			return res, nil
		},
	}
}

// SubmitTrace schedules one replay and returns its job handle (the
// jettyd service's trace experiments run through here).
func (r *Runner) SubmitTrace(in TraceInput, cfg smp.Config) *engine.Job {
	return r.eng.Submit(TraceTask(in, cfg))
}

// SubmitTraceSampled schedules one sampled replay.
func (r *Runner) SubmitTraceSampled(in TraceInput, cfg smp.Config, opt SampleOptions) *engine.Job {
	return r.eng.Submit(SampledTraceTask(in, cfg, opt))
}

// RunTrace replays a trace through the engine and waits for it.
func (r *Runner) RunTrace(ctx context.Context, in TraceInput, cfg smp.Config) (AppResult, error) {
	return waitResult(ctx, r.SubmitTrace(in, cfg))
}
