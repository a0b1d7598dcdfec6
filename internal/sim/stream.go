package sim

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"unsafe"

	"jetty/internal/addr"
	"jetty/internal/lru"
	"jetty/internal/smp"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// The stream memo. The paper captured each application's reference
// stream once and replayed it for every filter configuration; a
// generator input is the same kind of fixed stream, a pure function of
// its spec and the machine's CPU count. So generated streams are kept in
// one process-wide memo bounded in bytes, and a run whose stream is
// memoized steps it through System.StepBatch instead of running the
// generator again. A miss runs the generator as before, records the
// stream as the machine consumes it and stores it once the pass
// completes.
//
// A stationary mixture's stream does not depend on Accesses (Spec.Scale
// changes nothing else): a shorter run consumes a prefix of a longer
// one. Its key therefore zeroes Accesses, and a memoized stream serves
// any request up to its length. A phased spec sizes its phases from
// Accesses, so its key keeps it.

// streamBudget bounds the bytes of memoized streams: a 100,000-reference
// stream takes 1.6 MB, a full-scale suite app about 20 MB.
const streamBudget = 64 << 20

// recBytes is the memo's cost of one record.
const recBytes = int(unsafe.Sizeof(trace.Rec{}))

// streamMemo is a byte-bounded LRU of streams, each held as the records
// System.StepBatch reads. A stored stream is never modified, so a run
// keeps stepping it after it is evicted.
type streamMemo struct {
	budget  int
	mu      sync.Mutex
	streams *lru.LRU[[]trace.Rec]
	// recording maps a key to the length of the longest stream a miss
	// is recording under it now.
	recording    map[string]uint64
	hits, misses uint64
}

func newStreamMemo(budget int) *streamMemo {
	return &streamMemo{
		budget:    budget,
		streams:   lru.NewWeighted(budget, func(s []trace.Rec) int { return recBytes * len(s) }),
		recording: make(map[string]uint64),
	}
}

// streams is the process-wide stream memo.
var streams = newStreamMemo(streamBudget)

// lookup returns the first n records of the stream memoized under key,
// or nil when none of that length is. On a miss it also reports whether
// the caller is to record the stream it generates: only when the stream
// fits the budget and no run is recording one at least as long under
// key already, so concurrent misses of one stream record it once.
func (m *streamMemo) lookup(key string, n uint64) (s []trace.Rec, record bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.streams.Get(key); ok && uint64(len(s)) >= n {
		m.hits++
		return s[:n], false
	}
	m.misses++
	if n == 0 || n > uint64(m.budget/recBytes) || m.recording[key] >= n {
		return nil, false
	}
	m.recording[key] = n
	return nil, true
}

// finish ends the recording of n records that lookup started under key.
// It memoizes s, the complete stream, unless s is nil (the pass failed)
// or a stream at least as long is memoized under key already.
func (m *streamMemo) finish(key string, n uint64, s []trace.Rec) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recording[key] == n {
		delete(m.recording, key)
	}
	if s == nil {
		return
	}
	if old, ok := m.streams.Get(key); ok && len(old) >= len(s) {
		return
	}
	m.streams.Put(key, s)
}

// StreamMemoStats is a snapshot of the process-wide stream memo.
type StreamMemoStats struct {
	Hits   uint64 // generated runs served from a memoized stream
	Misses uint64 // generated runs that found none and ran the generator
	Bytes  int    // bytes of streams memoized now
}

// StreamStats returns the stream memo's counters.
func StreamStats() StreamMemoStats {
	m := streams
	m.mu.Lock()
	defer m.mu.Unlock()
	return StreamMemoStats{Hits: m.hits, Misses: m.misses, Bytes: m.streams.Weight()}
}

// streamKey names the stream sp generates on a cpus-CPU machine: a
// SHA-256 over the canonical encoding, as Key does, of the spec (with
// Accesses zeroed unless the spec is phased) and the CPU count.
func streamKey(sp workload.Spec, cpus int) string {
	if len(sp.Phases) == 0 {
		sp.Accesses = 0
	}
	b, err := json.Marshal(struct {
		Spec workload.Spec
		CPUs int
	}{sp, cpus})
	if err != nil {
		// Spec is plain data; encoding cannot fail.
		panic(fmt.Sprintf("sim: stream key encoding: %v", err))
	}
	sum := sha256.Sum256(b)
	return string(sum[:])
}

// generate drives sys over sp's generated stream: from the memo when
// it holds the stream, else from the generator, optionally teeing every
// consumed reference into tw. A memoized stream holds the records in the
// order System.Run's round-robin consumed them (generator streams never
// run dry), so stepping them in order is bit-identical to RunApp. A
// captured run always runs the generator, so the trace holds exactly
// what it produced.
//
// A miss runs the generator through Run, not in batches through
// StepBatch: StepBatch joins the companions at the end of every batch,
// so generating a batch ahead of stepping it would leave them idle for
// the whole generation.
func (m *streamMemo) generate(ctx context.Context, sys *smp.System, sp workload.Spec, tw *trace.Writer, report func(done uint64)) error {
	cpus := sys.Config().CPUs
	var src trace.Source = sp.Source(cpus)
	var cp *trace.Capture
	var rec *recorder
	if tw != nil {
		cp = trace.NewCapture(src, tw)
		src = cp
	} else {
		key := streamKey(sp, cpus)
		s, record := m.lookup(key, sp.Accesses)
		if s != nil {
			return stepStream(ctx, sys, s, report)
		}
		if record {
			rec = &recorder{src: src, recs: make([]trace.Rec, 0, sp.Accesses)}
			src = rec
			defer func() { m.finish(key, sp.Accesses, rec.recs) }()
		}
	}
	err := runChunked(ctx, sys, src, sp.Accesses, report)
	if err == nil && cp != nil {
		if err = cp.Err(); err != nil {
			err = fmt.Errorf("sim: recording trace: %w", err)
		}
	}
	if err != nil && rec != nil {
		rec.recs = nil
	}
	return err
}

// recorder tees a generator into a stream, in the order the machine
// consumes its references, with the address masked the way the machine
// reads it. Its slice is allocated at the stream's full length up
// front, so the memo weighs exactly the memory it holds.
type recorder struct {
	src  trace.Source
	recs []trace.Rec
}

// CPUs implements trace.Source.
func (r *recorder) CPUs() int { return r.src.CPUs() }

// Next implements trace.Source.
func (r *recorder) Next(cpu int) (trace.Ref, bool) {
	ref, ok := r.src.Next(cpu)
	r.recs = append(r.recs, trace.Rec{Addr: ref.Addr & addr.PhysMask, CPU: int32(cpu), Op: ref.Op})
	return ref, ok
}

// stepStream steps a memoized stream through sys in batches of
// progressChunk references, checking for cancellation and reporting
// progress between batches as runChunked does.
func stepStream(ctx context.Context, sys *smp.System, s []trace.Rec, report func(done uint64)) error {
	for done := 0; done < len(s); {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(progressChunk, len(s)-done)
		sys.StepBatch(s[done : done+n])
		done += n
		if report != nil {
			report(uint64(done))
		}
	}
	return nil
}
