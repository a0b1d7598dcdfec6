package smp

import (
	"fmt"

	"jetty/internal/metrics"
)

// noSample is the nextSample value with no sampler attached: refs counts
// up by one from a smaller value, so the per-access equality check can
// never fire.
const noSample = ^uint64(0)

// SetSampler attaches an interval sampler (nil detaches). The sampler
// must be sized for this machine's filter bank; it panics otherwise
// (attachment is programmer-controlled, like New). Window boundaries
// land on multiples of the sampler's interval in total references
// processed; the first boundary is the next multiple after the current
// reference count, so attaching at construction time (refs == 0) yields
// windows [0,iv), [iv,2iv), ...
//
// Sampling is observation only — the sampler reads cumulative counters
// at boundaries and never touches machine state — so results with and
// without a sampler are bit-identical (internal/sim pins this).
func (s *System) SetSampler(sm *metrics.Sampler) {
	if sm == nil {
		s.sampler = nil
		s.nextSample = noSample
		return
	}
	if sm.FilterWidth() != len(s.cfg.Filters) {
		panic(fmt.Sprintf("smp: sampler sized for %d filters, machine has %d",
			sm.FilterWidth(), len(s.cfg.Filters)))
	}
	s.join()
	sm.Prime(s)
	s.sampler = sm
	iv := sm.Interval()
	s.nextSample = (s.refs/iv + 1) * iv
}

// Sampler returns the attached sampler (nil when none).
func (s *System) Sampler() *metrics.Sampler { return s.sampler }

// sampleWindow emits one window at an interval boundary. It is the cold
// side of the hot-path check in Step/StepBatch: a join with the filter
// banks, then one O(cpus × filters) counter sweep per interval, no
// allocation in steady state.
func (s *System) sampleWindow() {
	s.join()
	s.nextSample += s.sampler.Interval()
	s.sampler.Observe(s)
}
