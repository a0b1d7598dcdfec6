package obs

import (
	"math"
	"sync/atomic"
)

// DefBuckets are the default latency bucket upper bounds in seconds,
// chosen to resolve both sub-millisecond handler latencies and
// multi-minute simulation runs in one family. The implicit +Inf bucket
// is always appended.
var DefBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 300,
}

// Histogram is a fixed-bucket, lock-free histogram. Observe is safe from
// any number of goroutines and never allocates: one linear scan over the
// (small) bound slice, one atomic increment, one CAS loop folding the
// value into the float64 sum. Rendering reads the buckets without
// stopping writers; cumulative counts are rebuilt at render time, so the
// exposition's +Inf bucket always equals the sample count by
// construction (the Prometheus invariant promlint checks).
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64   // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. 0 allocations; BenchmarkObsOverhead and
// TestHistogramObserveAllocs pin that property.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot copies the per-bucket counts (non-cumulative) and the sum.
func (h *Histogram) snapshot() (counts []uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.Sum()
}
