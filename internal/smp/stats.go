package smp

import (
	"fmt"
	"jetty/internal/cache"

	"jetty/internal/bus"
	"jetty/internal/energy"
)

// EnergyCounts returns the aggregated L2 event counts of all CPUs.
func (s *System) EnergyCounts() energy.Counts {
	var c energy.Counts
	for i := range s.nodes {
		c.Add(s.nodes[i].l2c)
	}
	return c
}

// EnergyCountsCPU returns one CPU's L2 event counts.
func (s *System) EnergyCountsCPU(cpu int) energy.Counts { return s.nodes[cpu].l2c }

// CPUStatsTotal returns the aggregated processor-side counters.
func (s *System) CPUStatsTotal() CPUStats {
	var c CPUStats
	for i := range s.nodes {
		c.Add(s.nodes[i].cpu)
	}
	return c
}

// CPUStatsFor returns one CPU's processor-side counters.
func (s *System) CPUStatsFor(cpu int) CPUStats { return s.nodes[cpu].cpu }

// BusStats returns the bus transaction statistics.
func (s *System) BusStats() *bus.Stats { return s.bus }

// FilterNames returns the configured filter names in bank order.
func (s *System) FilterNames() []string {
	names := make([]string, len(s.cfg.Filters))
	for i, f := range s.cfg.Filters {
		names[i] = f.Name()
	}
	return names
}

// FilterCounts returns filter idx's event counts aggregated over all CPUs,
// including any safety violations observed by the system (FilteredHits,
// which must be zero for a correct filter).
func (s *System) FilterCounts(idx int) energy.FilterCounts {
	var c energy.FilterCounts
	for i := range s.pipes {
		b := &s.pipes[i].bank
		c.Add(b.filters[idx].Counts())
		c.FilteredHits += b.unsafeFl[idx]
	}
	return c
}

// Coverage returns filter idx's snoop-miss coverage: the fraction of
// snoop-induced L2 tag lookups that would miss which the filter
// eliminated (the paper's §4.3 metric).
func (s *System) Coverage(idx int) float64 {
	fc := s.FilterCounts(idx)
	misses := s.EnergyCounts().SnoopMisses
	if misses == 0 {
		return 0
	}
	return float64(fc.Filtered) / float64(misses)
}

// CheckFilterSafety returns an error if any filter ever filtered a snoop
// to a cached unit (the paper's requirement 3, which must never happen).
// Beyond the per-snoop audit trail, it sweeps every valid unit of every
// CPU's L2 against that CPU's filters with side-effect-free peeks: a
// filter claiming any resident unit absent is a safety violation even if
// no snoop happened to expose it.
func (s *System) CheckFilterSafety() error {
	for i := range s.cfg.Filters {
		if c := s.FilterCounts(i); c.FilteredHits != 0 {
			return fmt.Errorf("smp: filter %s filtered %d snoops to cached units",
				s.cfg.Filters[i].Name(), c.FilteredHits)
		}
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		var err error
		n.l2.ForEachValidUnit(func(unit uint64, _ cache.State) {
			if err != nil {
				return
			}
			block := s.geom.BlockOfUnit(unit)
			for i, f := range s.pipes[n.id].bank.filters {
				if f.Peek(unit, block) {
					err = fmt.Errorf("smp: cpu%d filter %s claims resident unit %#x absent",
						n.id, s.cfg.Filters[i].Name(), unit)
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// L1HitRate returns the aggregate L1 hit rate over core-side L1 probes.
func (s *System) L1HitRate() float64 {
	c := s.CPUStatsTotal()
	if c.L1Probes == 0 {
		return 0
	}
	return float64(c.L1Hits) / float64(c.L1Probes)
}

// L2LocalHitRate returns the aggregate local (processor-initiated) L2 hit
// rate, the paper's "local hit rate": over accesses that missed in L1,
// including L1 writebacks (Table 2).
func (s *System) L2LocalHitRate() float64 {
	c := s.EnergyCounts()
	probes := c.LocalProbes()
	if probes == 0 {
		return 0
	}
	return float64(c.LocalReadHits+c.LocalWriteHits) / float64(probes)
}

// SnoopMissFracOfSnoops returns snoop-induced tag misses as a fraction of
// snoop-induced tag accesses (Table 3, "% of Snoop Accesses").
func (s *System) SnoopMissFracOfSnoops() float64 {
	c := s.EnergyCounts()
	if c.Snoops == 0 {
		return 0
	}
	return float64(c.SnoopMisses) / float64(c.Snoops)
}

// SnoopMissFracOfAll returns snoop-induced tag misses as a fraction of all
// L2 tag accesses, local and snoop-induced (Table 3, "% of All Accesses").
func (s *System) SnoopMissFracOfAll() float64 {
	c := s.EnergyCounts()
	all := c.Snoops + c.LocalProbes()
	if all == 0 {
		return 0
	}
	return float64(c.SnoopMisses) / float64(all)
}
