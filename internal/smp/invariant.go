package smp

import (
	"fmt"
	"slices"

	"jetty/internal/cache"
)

// CheckCoherence verifies the MOESI single-writer/multiple-reader
// invariants and L1/L2 inclusion across the whole machine. It is intended
// for tests and debugging (cost is proportional to cache contents).
//
// Invariants checked, per coherence unit:
//
//  1. at most one cache holds it Modified or Exclusive, and then no other
//     cache holds it in any valid state;
//  2. at most one cache holds it Owned (the owner), and no cache holds it
//     Modified or Exclusive alongside;
//  3. every valid L1 line is covered by a valid unit in its own L2, and a
//     dirty L1 line requires the L2 unit Modified;
//  4. the L2's inL1 hint covers every present L1 line (it may
//     over-approximate, never under-approximate).
func (s *System) CheckCoherence() error {
	// One word per valid (cache, unit) pair — the unit above a 2-bit
	// holder class — sorted so each unit's holders form one run.
	const (
		holdME = iota // Modified or Exclusive
		holdO         // Owned
		holdS         // Shared
	)
	n := 0
	for i := range s.nodes {
		n += s.nodes[i].l2.LiveBlocks() << s.upbShift
	}
	held := make([]uint64, 0, n)
	for i := range s.nodes {
		s.nodes[i].l2.ForEachValidUnit(func(unit uint64, st cache.State) {
			class := uint64(holdS)
			switch st {
			case cache.Modified, cache.Exclusive:
				class = holdME
			case cache.Owned:
				class = holdO
			}
			held = append(held, unit<<2|class)
		})
	}
	slices.Sort(held)
	for lo := 0; lo < len(held); {
		unit := held[lo] >> 2
		var cnt [3]int
		hi := lo
		for ; hi < len(held) && held[hi]>>2 == unit; hi++ {
			cnt[held[hi]&3]++
		}
		lo = hi
		me, o, sh := cnt[holdME], cnt[holdO], cnt[holdS]
		if me > 1 {
			return fmt.Errorf("smp: unit %#x has %d M/E holders", unit, me)
		}
		if me == 1 && (o > 0 || sh > 0) {
			return fmt.Errorf("smp: unit %#x held M/E alongside %d O + %d S copies", unit, o, sh)
		}
		if o > 1 {
			return fmt.Errorf("smp: unit %#x has %d owners", unit, o)
		}
	}

	for i := range s.nodes {
		n := &s.nodes[i]
		var err error
		n.l1.ForEachValidLine(func(line uint64, dirty bool) {
			if err != nil {
				return
			}
			unit := s.unitOfLine(line)
			st := n.l2.UnitState(unit)
			if !st.Valid() {
				err = fmt.Errorf("smp: cpu%d L1 line %#x not covered by L2 (inclusion)", n.id, line)
				return
			}
			if dirty && st != cache.Modified {
				err = fmt.Errorf("smp: cpu%d dirty L1 line %#x over L2 state %v", n.id, line, st)
				return
			}
			if !n.l2.InL1(unit) {
				err = fmt.Errorf("smp: cpu%d L1 line %#x present but inL1 hint clear", n.id, line)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
