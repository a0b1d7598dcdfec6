package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/smp"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// The engine-backed execution path. Every simulation — a one-off
// experiment, a sweep cell, a fused sweep group — is one Run of an
// Input under a Plan, which internal/sweep schedules as one engine
// group task whose members are content-addressed by Key. A
// single-configuration run is simply a plan carrying one bank. RunApp
// stays the reference the engine-backed path must reproduce bit for
// bit.

// Input is the reference stream of one simulation: a generator spec,
// or a stored trace to replay when Trace is non-nil.
type Input struct {
	Spec  workload.Spec
	Trace *TraceInput
}

// Total returns the stream length in references: the run's progress
// denominator.
func (in Input) Total() uint64 {
	if in.Trace != nil {
		return in.Trace.Records
	}
	return in.Spec.Accesses
}

// Label returns the workload spec a run of in labels its results with:
// the generator spec, or a trace's name and length.
func (in Input) Label() workload.Spec {
	if in.Trace != nil {
		return in.Trace.pseudoSpec()
	}
	return in.Spec
}

// Key returns the content address of running in on cfg, sampled at
// interval (0 = unsampled): a SHA-256 over the canonical encoding of
// the stream's identity (the generator spec, or the trace digest) and
// the machine configuration. Everything a run's result depends on is in
// those values (every generator is seeded, the interleaving is fixed,
// a trace fixes its stream), so the key is a sound cache and
// deduplication key — two clients uploading byte-identical traces share
// one execution. A sampled result carries a payload (the timeline) an
// unsampled run does not, so the interval extends the key; the
// streaming hook deliberately does not (coalesced submitters share one
// execution, and late subscribers replay from the retained timeline).
//
// The strings name every persisted result and cluster memo entry, so
// they must never change by accident (TestKeyGolden pins them).
func Key(in Input, cfg smp.Config, interval uint64) string {
	var id any = struct {
		Spec   workload.Spec
		Config smp.Config
	}{in.Spec, cfg}
	if in.Trace != nil {
		id = struct {
			Trace  string
			Config smp.Config
		}{in.Trace.Digest, cfg}
	}
	b, err := json.Marshal(id)
	if err != nil {
		// Spec and Config are plain data; encoding cannot fail.
		panic(fmt.Sprintf("sim: key encoding: %v", err))
	}
	sum := sha256.Sum256(b)
	key := hex.EncodeToString(sum[:])
	if interval > 0 {
		key = fmt.Sprintf("%s#tl%d", key, interval)
	}
	return key
}

// Plan is what rides on one simulation pass besides the machine.
type Plan struct {
	// Banks are the member filter banks. Run attaches all of them,
	// concatenated, in place of base's own filters and returns one
	// result per bank, each bit-identical to a separate run on
	// base.WithFilters(bank...) (see fused.go). Nil runs base as given,
	// as the only member.
	Banks [][]jetty.Config
	// Sample attaches interval sampling: every result carries its
	// Timeline.
	Sample SampleOptions
}

// Run simulates in on base under plan, with cooperative cancellation
// (it returns ctx.Err() promptly once canceled) and progress reporting
// (report, if non-nil, receives the references completed so far). It
// returns one result per plan bank, or one for base when the plan has
// none. Results are bit-identical to RunApp on the same machine. It
// returns an error if any filter violated the safety requirement or the
// machine ended incoherent.
func Run(ctx context.Context, in Input, base smp.Config, plan Plan, report func(done uint64)) ([]AppResult, error) {
	return run(ctx, in, base, plan, report, streams)
}

// run is Run with generator inputs served through the stream memo m.
func run(ctx context.Context, in Input, base smp.Config, plan Plan, report func(done uint64), m *streamMemo) ([]AppResult, error) {
	cfg := base
	if plan.Banks != nil {
		cfg = fusedConfig(base, plan.Banks)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var sm *metrics.Sampler
	if plan.Sample.enabled() {
		var err error
		if sm, err = plan.Sample.newSampler(cfg, plan.Banks, in.Total()); err != nil {
			return nil, err
		}
	}
	buf := batchPool.Get().(*[batchRecords]trace.Rec)
	defer batchPool.Put(buf)
	var next func() ([]trace.Rec, error)
	if in.Trace != nil {
		rd, err := trace.NewReader(bytes.NewReader(in.Trace.Data))
		if err != nil {
			return nil, err
		}
		if rd.CPUs() > cfg.CPUs {
			return nil, fmt.Errorf("sim: trace has %d cpus but the machine only %d", rd.CPUs(), cfg.CPUs)
		}
		next = decoded(rd, buf[:])
	} else {
		if err := in.Spec.Validate(); err != nil {
			return nil, err
		}
		st := m.open(in.Spec, cfg.CPUs, buf[:])
		defer st.close()
		next = st.next
	}

	sys := smp.New(cfg)
	defer sys.Close()
	if sm != nil {
		sys.SetSampler(sm)
	}
	if err := stepBatches(ctx, sys, next, report); err != nil {
		return nil, err
	}
	if in.Trace != nil && sys.Refs() != in.Trace.Records {
		return nil, fmt.Errorf("sim: replayed %d of the trace's %d records", sys.Refs(), in.Trace.Records)
	}
	full, err := finishRun(sys, in.Label(), cfg)
	if err != nil {
		return nil, err
	}
	if len(plan.Banks) <= 1 {
		return []AppResult{full}, nil
	}
	return projectAll(full, plan.Banks), nil
}

// batchRecords is the number of references in one batch: the unit a run
// is produced, stepped, checked for cancellation and reported in. A
// pooled batch (16 bytes a record) stays cache-resident between the
// producer that fills it and the machine that steps it.
const batchRecords = 1 << 13

// batchPool holds the batch buffers of trace decoding and of generator
// misses that do not record.
var batchPool = sync.Pool{New: func() any { return new([batchRecords]trace.Rec) }}

// stepBatches steps sys through the batches next produces until it
// produces an empty one, checking ctx before each batch and reporting
// the references stepped so far after it. Memo hits, generator misses
// and trace replays all feed it; the only other StepBatch caller is
// RunApp's reference loop, stepRecords (sim.go).
func stepBatches(ctx context.Context, sys *smp.System, next func() ([]trace.Rec, error), report func(done uint64)) error {
	var done uint64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		recs, err := next()
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return nil
		}
		sys.StepBatch(recs)
		done += uint64(len(recs))
		if report != nil {
			report(done)
		}
	}
}
