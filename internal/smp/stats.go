package smp

import (
	"fmt"

	"jetty/internal/bus"
	"jetty/internal/cache"
	"jetty/internal/energy"
	"jetty/internal/jetty"
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
// which must be zero for a correct filter). It joins the companions
// first, so the counts cover every reference stepped so far.
func (s *System) FilterCounts(idx int) energy.FilterCounts {
	s.join()
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
// Beyond the per-snoop audit trail, it audits every CPU's filter state
// against that CPU's L2 with side-effect-free reads: a filter claiming
// any resident unit absent is a safety violation even if no snoop
// happened to expose it. Each filter kind is audited from its cheaper
// side: every unit an exclude-JETTY claims absent is looked up in the
// L2; an include-JETTY is peeked once per resident block, since its
// answer depends on the block alone; any other filter is peeked at
// every resident unit. Hybrids are audited as their two halves.
func (s *System) CheckFilterSafety() error {
	s.join()
	for i := range s.cfg.Filters {
		if c := s.FilterCounts(i); c.FilteredHits != 0 {
			return fmt.Errorf("smp: filter %s filtered %d snoops to cached units",
				s.cfg.Filters[i].Name(), c.FilteredHits)
		}
	}
	for i := range s.nodes {
		if err := s.auditNode(&s.nodes[i]); err != nil {
			return err
		}
	}
	return nil
}

// auditNode audits node n's filter bank against its L2 contents.
func (s *System) auditNode(n *node) error {
	b := &s.pipes[n.id].bank
	claimsResident := func(idx int, ej *jetty.Exclude) error {
		var err error
		ej.Claims(func(unit uint64) bool {
			if n.l2.UnitState(unit) != cache.Invalid {
				err = s.unsafeErr(n, idx, unit)
			}
			return err == nil
		})
		return err
	}
	ijs := append([]*jetty.Include(nil), b.ijs...)
	ijIdx := append([]int(nil), b.ijIdx...)
	for k, ej := range b.ejs {
		if err := claimsResident(b.ejIdx[k], ej); err != nil {
			return err
		}
	}
	for k, hj := range b.hjs {
		if err := claimsResident(b.hjIdx[k], hj.Exclude()); err != nil {
			return err
		}
		ijs = append(ijs, hj.Include())
		ijIdx = append(ijIdx, b.hjIdx[k])
	}
	if len(ijs) == 0 && len(b.gen) == 0 {
		return nil
	}
	var err error
	last := ^uint64(0)
	n.l2.ForEachValidUnit(func(unit uint64, _ cache.State) {
		if err != nil {
			return
		}
		block := s.geom.BlockOfUnit(unit)
		// The L2 yields a block's units together, so this peeks each
		// block once; any other order would only peek some blocks twice.
		if block != last {
			last = block
			for k, ij := range ijs {
				if ij.Peek(unit, block) {
					err = s.unsafeErr(n, ijIdx[k], unit)
					return
				}
			}
		}
		for k, f := range b.gen {
			if f.Peek(unit, block) {
				err = s.unsafeErr(n, b.genIdx[k], unit)
				return
			}
		}
	})
	return err
}

// unsafeErr reports that filter idx of node n claims a resident unit absent.
func (s *System) unsafeErr(n *node, idx int, unit uint64) error {
	return fmt.Errorf("smp: cpu%d filter %s claims resident unit %#x absent",
		n.id, s.cfg.Filters[idx].Name(), unit)
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
