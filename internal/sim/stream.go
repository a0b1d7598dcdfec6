package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"unsafe"

	"jetty/internal/lru"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// The stream memo. The paper captured each application's reference
// stream once and replayed it for every filter configuration; a
// generator input is the same kind of fixed stream, a pure function of
// its spec and the machine's CPU count. So generated streams are kept in
// one process-wide memo bounded in bytes, and a run whose stream is
// memoized steps slices of it instead of running the generator again. A
// miss generates the stream batch by batch straight into a buffer of its
// full length, which the memo keeps once the generator has produced all
// of it.
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
// System.StepBatch reads, in the order it steps them. A stored stream is
// never modified, so a run keeps stepping it after it is evicted.
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

// stream produces a generator input's batches. On a memo hit they are
// consecutive slices of the memoized stream, with no copy. On a miss the
// round-robin interleaver fills each batch straight into the stream
// being recorded, or into the pooled buffer buf when the run does not
// record, so stepping the batches in order is bit-identical to RunApp.
type stream struct {
	rr   *trace.RoundRobin // nil on a hit
	recs []trace.Rec       // the memoized stream, or the one being recorded
	buf  []trace.Rec
	done uint64
	n    uint64

	m      *streamMemo
	key    string
	record bool
}

// open returns the producer of sp's stream on a cpus-CPU machine. The
// caller must close it.
func (m *streamMemo) open(sp workload.Spec, cpus int, buf []trace.Rec) *stream {
	st := &stream{buf: buf, n: sp.Accesses, m: m, key: streamKey(sp, cpus)}
	st.recs, st.record = m.lookup(st.key, sp.Accesses)
	if st.recs != nil {
		return st
	}
	if st.record {
		st.recs = make([]trace.Rec, sp.Accesses)
	}
	st.rr = trace.NewRoundRobin(sp.Source(cpus))
	return st
}

// next returns the next batch, or an empty one at the end of the stream.
func (st *stream) next() ([]trace.Rec, error) {
	k := min(batchRecords, st.n-st.done)
	b := st.buf[:k]
	if st.recs != nil {
		b = st.recs[st.done : st.done+k]
	}
	if st.rr != nil {
		if got := st.rr.Fill(b); uint64(got) < k {
			return nil, fmt.Errorf("sim: the generator ran dry after %d references", st.done+uint64(got))
		}
	}
	st.done += k
	return b, nil
}

// close ends a recording: the memo keeps the stream only if the
// generator produced all of it.
func (st *stream) close() {
	if !st.record {
		return
	}
	s := st.recs
	if st.done < st.n {
		s = nil
	}
	st.m.finish(st.key, st.n, s)
}
