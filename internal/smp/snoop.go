package smp

import (
	"jetty/internal/bus"
	"jetty/internal/cache"
)

// busRead issues a BusRd for a load miss: every other CPU snoops; owners
// supply data and downgrade; the requester fills Shared (or Exclusive if
// no remote copies existed). It returns the filled unit's L2 frame.
func (s *System) busRead(n *node, unit, block uint64) cache.Frame {
	remoteHits := 0
	for i := range s.nodes {
		o := &s.nodes[i]
		if o == n {
			continue
		}
		if s.snoop(o, unit, block, bus.Read) {
			remoteHits++
		}
	}
	s.bus.Record(bus.Read, remoteHits)

	st := cache.Exclusive
	if remoteHits > 0 {
		st = cache.Shared
	}
	return s.fillL2Unit(n, unit, block, st)
}

// busReadX issues a BusRdX for a store miss: remote copies are
// invalidated (owners supply the data on the way out); the requester
// fills Modified. It returns the filled unit's L2 frame.
func (s *System) busReadX(n *node, unit, block uint64) cache.Frame {
	remoteHits := 0
	for i := range s.nodes {
		o := &s.nodes[i]
		if o == n {
			continue
		}
		if s.snoop(o, unit, block, bus.ReadX) {
			remoteHits++
		}
	}
	s.bus.Record(bus.ReadX, remoteHits)
	return s.fillL2Unit(n, unit, block, cache.Modified)
}

// busUpgrade issues a BusUpgr for a store hitting a Shared/Owned copy:
// remote copies are invalidated; the local unit (frame f) becomes
// Modified without a data transfer.
func (s *System) busUpgrade(n *node, f cache.Frame, unit, block uint64) {
	remoteHits := 0
	for i := range s.nodes {
		o := &s.nodes[i]
		if o == n {
			continue
		}
		if s.snoop(o, unit, block, bus.Upgrade) {
			remoteHits++
		}
	}
	s.bus.Record(bus.Upgrade, remoteHits)
	n.l2.SetStateAt(f, unit, cache.Modified)
	n.l2c.LocalStateWrite++
}

// snoop delivers one bus transaction to a remote node's hierarchy and
// returns whether that node held a copy (a "remote hit"). The JETTY
// filter bank observes every snoop; the protocol itself always proceeds
// (filtering would only have skipped the tag probe of snoops that miss,
// so outcomes are identical — this is what lets one pass measure every
// filter configuration).
func (s *System) snoop(o *node, unit, block uint64, kind bus.Kind) bool {
	o.l2c.Snoops++

	f := o.l2.FindBlock(block)
	st := cache.Invalid
	if f.Ok() {
		st = o.l2.StateAt(f, unit)
	}
	present := st.Valid()
	blockAbsent := !f.Ok()

	// The filter bank observes every snoop (and is audited for safety
	// violations) through the event log.
	ev := evSnoop | unit<<evArgShift
	if present {
		ev |= evPresent
	}
	if blockAbsent {
		ev |= evBlockAbsent
	}
	s.emit(o, ev)

	if !present {
		o.l2c.SnoopMisses++
		return false
	}
	o.l2c.SnoopHits++

	switch kind {
	case bus.Writeback:
		// Address check only: the departing owner's data goes to memory;
		// surviving Shared copies stay valid.

	case bus.Read:
		if st.CanSupply() {
			o.l2c.SnoopSupplies++
			// The freshest data may sit in a dirty L1 line (inclusion
			// hint): probing it is an L1 access, and the line downgrades
			// to clean as the L2 takes ownership of the merged data.
			if o.l2.InL1At(f, unit) {
				s.l1SnoopClean(o, unit)
			}
		}
		var next cache.State
		switch st {
		case cache.Modified, cache.Owned:
			next = cache.Owned // MOESI: dirty data stays on-chip, shared
		case cache.Exclusive, cache.Shared:
			next = cache.Shared
		}
		if next != st {
			o.l2.SetStateAt(f, unit, next)
			o.l2c.SnoopStateWrites++
		}

	case bus.ReadX, bus.Upgrade:
		if kind == bus.ReadX && st.CanSupply() {
			o.l2c.SnoopSupplies++
		}
		if o.l2.InL1At(f, unit) {
			s.l1SnoopInvalidate(o, unit)
		}
		// InvalidateAt clears the unit's inL1 hint alongside its state.
		_, freed := o.l2.InvalidateAt(f, unit)
		o.l2c.SnoopStateWrites++
		if freed {
			o.l2c.TagEvictions++
			s.emit(o, evEvict|block<<evArgShift)
		}
	}
	return true
}

// l1SnoopClean probes the L1 lines covering a unit, cleans any dirty one
// (its data merges into the L2 copy being supplied) and drops the
// exclusivity hints: the unit is being downgraded out of M/E.
func (s *System) l1SnoopClean(o *node, unit uint64) {
	first := unit << s.unitShift
	for i := 0; i < s.linesPerUnit; i++ {
		o.cpu.L1SnoopProbes++
		o.l1.Clean(first + uint64(i))
		o.l1.ClearExclusive(first + uint64(i))
	}
}

// l1SnoopInvalidate removes the L1 lines covering a unit (inclusion).
// The L2-side inL1 hint clears with the unit's state (InvalidateAt) or
// with the departing block's frame, so only the L1 is touched here.
func (s *System) l1SnoopInvalidate(o *node, unit uint64) {
	first := unit << s.unitShift
	for i := 0; i < s.linesPerUnit; i++ {
		o.cpu.L1SnoopProbes++
		o.l1.Invalidate(first + uint64(i))
	}
}

// fillL2Unit installs a unit arriving from the bus, evicting a victim
// block if the set is full and notifying the filter bank of every tag
// event. It returns the unit's frame.
func (s *System) fillL2Unit(n *node, unit, block uint64, st cache.State) cache.Frame {
	ev, allocated, f := n.l2.EnsureFrame(block)
	if ev != nil {
		s.handleEviction(n, ev)
	}
	if allocated {
		n.l2c.TagAllocs++
		s.emit(n, evAlloc|block<<evArgShift)
	}
	n.l2.SetStateAt(f, unit, st)
	n.l2.TouchAt(f)
	n.l2c.LocalFills++
	s.emit(n, evFill|unit<<evArgShift)
	return f
}

// handleEviction processes a block displaced from the L2: dirty units are
// written back to memory, covered L1 lines are invalidated (inclusion),
// and the filter bank learns of the deallocation. ev points into the
// evicting L2's scratch buffer; it stays valid here because eviction
// handling never allocates in that same L2 (writeback snoops only touch
// other nodes).
func (s *System) handleEviction(n *node, ev *cache.Eviction) {
	n.l2c.TagEvictions++
	s.emit(n, evEvict|ev.Block<<evArgShift)
	for _, u := range ev.Units {
		if u.InL1 {
			s.l1SnoopInvalidate(n, u.Unit)
		}
		if !u.State.Dirty() {
			continue
		}
		// One writeback transaction per dirty unit; the whole bus snoops
		// it (an Owned departure can still hit surviving Shared copies).
		n.l2c.DirtyWBUnits++
		hits := 0
		for i := range s.nodes {
			o := &s.nodes[i]
			if o == n {
				continue
			}
			if s.snoop(o, u.Unit, ev.Block, bus.Writeback) {
				hits++
			}
		}
		s.bus.Record(bus.Writeback, hits)
	}
}
