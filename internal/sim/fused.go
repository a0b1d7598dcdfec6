package sim

import (
	"jetty/internal/energy"
	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/smp"
)

// Fused evaluation: JETTY filters are passive observers of the
// coherence stream — they never change what the bus sees — so any
// number of filter banks can ride on ONE simulation pass and each
// observe exactly the stream it would have seen alone. This file
// exploits that: it runs the machine once with every member's bank
// concatenated into one wide observer bank, then projects the wide
// result back into per-member AppResults by slicing each member's
// contiguous filter columns out.
//
// The projection is bit-identical to running each member separately
// (TestSweepFusedMatchesPerCell in internal/sweep pins it):
//   - Machine state, counters, bus statistics and hit rates are pure
//     functions of (reference stream, machine config minus filters),
//     so the wide run's aggregates equal every member's.
//   - A filter instance's counts depend only on the snoop stream and
//     its own configuration — never on its neighbors in the bank — so
//     slicing columns [off, off+n) yields the member's exact counts.
//   - Coverage is Filtered/SnoopMisses: same integers, same float.
//   - Timeline windows carry machine Counts (filter-independent, and
//     Window.Energy derives from Counts alone) plus per-filter columns
//     sliced the same way.

// fusedConfig widens base with every bank concatenated in order, in
// place of base's own filters.
func fusedConfig(base smp.Config, banks [][]jetty.Config) smp.Config {
	total := 0
	for _, b := range banks {
		total += len(b)
	}
	all := make([]jetty.Config, 0, total)
	for _, b := range banks {
		all = append(all, b...)
	}
	return base.WithFilters(all...)
}

// projectResult slices one member's result out of the wide run: filter
// columns [off, off+n) of the aggregate counters and of every timeline
// window, everything else copied verbatim (it is identical for every
// member by construction). Slices are freshly allocated — members must
// not alias each other or the wide result (they go into the engine
// cache independently).
func projectResult(full AppResult, off, n int) AppResult {
	r := full
	r.RemoteHitFrac = append([]float64(nil), full.RemoteHitFrac...)
	r.Bus.RemoteHits = append([]uint64(nil), full.Bus.RemoteHits...)
	r.FilterNames = append([]string(nil), full.FilterNames[off:off+n]...)
	r.FilterCounts = append([]energy.FilterCounts(nil), full.FilterCounts[off:off+n]...)
	r.Coverage = append([]float64(nil), full.Coverage[off:off+n]...)
	if full.Timeline != nil {
		tl := &metrics.Timeline{
			Interval:    full.Timeline.Interval,
			FilterNames: append([]string(nil), full.Timeline.FilterNames[off:off+n]...),
			Windows:     make([]metrics.Window, len(full.Timeline.Windows)),
		}
		for i := range tl.Windows {
			tl.Windows[i] = windowColumns(&full.Timeline.Windows[i], off, n)
			tl.Windows[i].Filters = append([]energy.FilterCounts(nil), tl.Windows[i].Filters...)
		}
		r.Timeline = tl
	}
	return r
}

// windowColumns returns w restricted to filter columns [off, off+n): a
// shallow copy whose Filters reslices w's, so it borrows w's storage.
func windowColumns(w *metrics.Window, off, n int) metrics.Window {
	c := *w
	c.Filters = w.Filters[off : off+n : off+n]
	return c
}

// projectAll demuxes the wide result into one AppResult per bank, in
// bank order.
func projectAll(full AppResult, banks [][]jetty.Config) []AppResult {
	out := make([]AppResult, len(banks))
	off := 0
	for i, b := range banks {
		out[i] = projectResult(full, off, len(b))
		off += len(b)
	}
	return out
}
