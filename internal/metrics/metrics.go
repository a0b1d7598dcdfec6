package metrics

import (
	"fmt"

	"jetty/internal/energy"
)

// MinInterval is the smallest permitted sampling interval. One window
// boundary costs an O(cpus × filters) counter sweep; at 64 accesses per
// window that sweep is already a measurable share of the run, and the
// service/sweep layers accept intervals from unauthenticated clients.
const MinInterval = 64

// Window is one fixed-size interval of machine activity: the delta of
// every cumulative counter between two window boundaries. Boundaries are
// fixed in accesses (references), not wall time, so a timeline is a pure
// function of (workload, machine, interval) and replays bit-identically.
type Window struct {
	// Index is the window ordinal, 0-based.
	Index int `json:"index"`
	// StartRef/EndRef are the global reference counts at the window's
	// edges; Refs = EndRef - StartRef (the final flush window may be
	// shorter than the interval, and a drain-only flush can be empty).
	StartRef uint64 `json:"start_ref"`
	EndRef   uint64 `json:"end_ref"`
	Refs     uint64 `json:"refs"`

	// Counts is the window's L2 event activity (snoops, hits, misses,
	// fills, evictions — everything the energy model consumes).
	Counts energy.Counts `json:"counts"`
	// Filters is the window's per-filter activity, in bank order.
	Filters []energy.FilterCounts `json:"filters,omitempty"`

	// Energy is the window's baseline (unfiltered) L2 energy split by
	// component. The sampler leaves it zero; the sim layer fills it from
	// the window counts when it streams a window or finishes a timeline.
	Energy energy.Breakdown `json:"energy"`
}

// Coverage returns filter i's in-window snoop-miss coverage: filtered
// snoops over snoop misses, 0 for a window without snoop misses.
func (w *Window) Coverage(i int) float64 {
	if w.Counts.SnoopMisses == 0 {
		return 0
	}
	return float64(w.Filters[i].Filtered) / float64(w.Counts.SnoopMisses)
}

// CounterSource is the sampler's view of a running machine: cumulative
// counters only, never mutated by observation. smp.System implements it.
type CounterSource interface {
	// Refs returns the references processed so far.
	Refs() uint64
	// EnergyCounts returns the cumulative L2 event counts.
	EnergyCounts() energy.Counts
	// FilterCounts returns filter idx's cumulative event counts.
	FilterCounts(idx int) energy.FilterCounts
}

// Config sizes a Sampler.
type Config struct {
	// Interval is the window width in accesses. Must be >= MinInterval.
	Interval uint64
	// Filters is the width of the machine's filter bank (the length of
	// every window's Filters slice). May be 0.
	Filters int
	// Capacity pre-sizes the retained timeline in windows. Runs whose
	// length is known should size it to accesses/interval+2 so
	// steady-state emission allocates nothing; growth past it is
	// amortized doubling.
	Capacity int
	// OnWindow, if non-nil, is called at every boundary with the freshly
	// emitted window. The pointer is borrowed: it stays valid until the
	// next boundary (windows are double-buffered against the retained
	// timeline), so streaming consumers must copy or encode before
	// returning.
	OnWindow func(*Window)
}

// Sampler turns a stream of cumulative counter snapshots into fixed-size
// windows. It is attached to a machine with smp.(*System).SetSampler and
// driven by the machine itself at every interval boundary; once primed,
// observation is allocation-free (the retained timeline and the
// per-window filter slices come from pre-grown arenas).
//
// A Sampler is not safe for concurrent use: it lives on the simulation
// goroutine. Concurrent consumers (the jettyd live stream) receive
// copies through OnWindow.
type Sampler struct {
	interval uint64
	nf       int
	onWindow func(*Window)

	primed    bool
	lastRefs  uint64
	lastCum   energy.Counts
	lastFilts []energy.FilterCounts // cumulative at the last boundary

	windows []Window
	arena   []energy.FilterCounts // backing store for window filter slices
}

// NewSampler builds a sampler. It panics on an interval below
// MinInterval (sampler construction is programmer-controlled; the
// service validates client-supplied intervals before building one).
func NewSampler(cfg Config) *Sampler {
	if cfg.Interval < MinInterval {
		panic(fmt.Sprintf("metrics: interval %d below minimum %d", cfg.Interval, MinInterval))
	}
	if cfg.Filters < 0 {
		panic("metrics: negative filter width")
	}
	capacity := cfg.Capacity
	if capacity < 4 {
		capacity = 4
	}
	return &Sampler{
		interval:  cfg.Interval,
		nf:        cfg.Filters,
		onWindow:  cfg.OnWindow,
		lastFilts: make([]energy.FilterCounts, cfg.Filters),
		windows:   make([]Window, 0, capacity),
		arena:     make([]energy.FilterCounts, 0, capacity*cfg.Filters),
	}
}

// Interval returns the window width in accesses.
func (s *Sampler) Interval() uint64 { return s.interval }

// FilterWidth returns the filter-bank width the sampler was sized for.
func (s *Sampler) FilterWidth() int { return s.nf }

// Prime seeds the delta base from the source's current cumulative
// counters. SetSampler calls it on attach; attaching mid-run therefore
// samples only activity from the attach point on.
func (s *Sampler) Prime(src CounterSource) {
	s.lastRefs = src.Refs()
	s.lastCum = src.EnergyCounts()
	for i := range s.lastFilts {
		s.lastFilts[i] = src.FilterCounts(i)
	}
	s.primed = true
}

// Observe emits one window: the delta between the source's cumulative
// counters and the previous boundary. The machine calls it exactly at
// interval boundaries; Flush calls it once more for the tail.
func (s *Sampler) Observe(src CounterSource) {
	if !s.primed {
		panic("metrics: Observe before Prime")
	}
	refs := src.Refs()
	cum := src.EnergyCounts()

	w := s.nextWindow()
	w.Index = len(s.windows) - 1
	w.StartRef = s.lastRefs
	w.EndRef = refs
	w.Refs = refs - s.lastRefs
	w.Counts = cum.Sub(s.lastCum)
	w.Energy = energy.Breakdown{}
	for i := 0; i < s.nf; i++ {
		fc := src.FilterCounts(i)
		w.Filters[i] = fc.Sub(s.lastFilts[i])
		s.lastFilts[i] = fc
	}
	s.lastRefs = refs
	s.lastCum = cum
	if s.onWindow != nil {
		s.onWindow(w)
	}
}

// Flush emits the final partial window if any activity (references or
// counter movement, e.g. the end-of-run write-buffer drain) happened
// since the last boundary. The run layer calls it after
// DrainWriteBuffers so the timeline conserves the end-of-run totals
// exactly.
func (s *Sampler) Flush(src CounterSource) {
	if !s.primed {
		return
	}
	if src.Refs() == s.lastRefs && src.EnergyCounts() == s.lastCum {
		return
	}
	s.Observe(src)
}

// nextWindow appends one window to the retained timeline, reusing arena
// capacity when available (zero allocations in steady state).
func (s *Sampler) nextWindow() *Window {
	s.windows = append(s.windows, Window{})
	w := &s.windows[len(s.windows)-1]
	if s.nf > 0 {
		if len(s.arena)+s.nf > cap(s.arena) {
			// Fresh chunk; earlier windows keep pointing into the old one.
			chunk := cap(s.arena)
			if chunk < s.nf {
				chunk = s.nf
			}
			s.arena = make([]energy.FilterCounts, 0, chunk*2)
		}
		s.arena = s.arena[:len(s.arena)+s.nf]
		w.Filters = s.arena[len(s.arena)-s.nf : len(s.arena) : len(s.arena)]
	}
	return w
}

// Windows returns the retained windows in emission order. The slice is
// owned by the sampler; Timeline copies it out.
func (s *Sampler) Windows() []Window { return s.windows }

// Rewind discards the retained windows while keeping the cumulative
// delta base, so the next windows continue seamlessly. Benchmarks use it
// to reuse one sampler across iterations without unbounded retention.
func (s *Sampler) Rewind() {
	s.windows = s.windows[:0]
	s.arena = s.arena[:0]
}
