package jetty

import (
	"fmt"
	"math/bits"

	"jetty/internal/energy"
)

// ExcludeConfig describes an exclude-JETTY: Sets x Ways entries, each
// covering Vector coherence units (Vector == 1 is the plain EJ of §3.1;
// Vector > 1 is the VEJ of Fig. 3(a)).
type ExcludeConfig struct {
	Sets   int // number of sets (power of two)
	Ways   int // associativity
	Vector int // present-vector bits per entry (power of two, >= 1)
}

// Name returns the paper-style name: EJ-SxA or VEJ-SxA-V.
func (c ExcludeConfig) Name() string {
	if c.Vector > 1 {
		return fmt.Sprintf("VEJ-%dx%d-%d", c.Sets, c.Ways, c.Vector)
	}
	return fmt.Sprintf("EJ-%dx%d", c.Sets, c.Ways)
}

// Entries returns the total entry count.
func (c ExcludeConfig) Entries() int { return c.Sets * c.Ways }

// Validate reports configuration errors.
func (c ExcludeConfig) Validate() error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("jetty: exclude sets %d not a positive power of two", c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("jetty: exclude ways %d must be positive", c.Ways)
	case c.Vector <= 0 || c.Vector&(c.Vector-1) != 0 || c.Vector > 64:
		return fmt.Errorf("jetty: exclude vector %d must be a power of two in 1..64", c.Vector)
	}
	return nil
}

// EnergyOrg returns the storage organization used for energy costing,
// given the coherence-unit address width of the machine.
func (c ExcludeConfig) EnergyOrg(unitAddrBits int) energy.ExcludeOrg {
	tag := unitAddrBits - log2(c.Sets) - log2(c.Vector)
	if tag < 1 {
		tag = 1
	}
	return energy.ExcludeOrg{Sets: c.Sets, Ways: c.Ways, TagBits: tag, VectorBits: c.Vector}
}

// Exclude is the exclude-JETTY (EJ / VEJ), recording a subset of what is
// known NOT to be cached.
//
// The plain EJ (Vector == 1) works at *block* granularity: "EJ keeps a
// record of blocks that ... missed in the local L2 and are still not
// cached" (§3.1). An entry is allocated only when a snoop found no
// matching L2 tag at all — a whole-block guarantee — so a later snoop to
// *any* subblock of that block is safely filtered. This is why the paper
// observes that "accesses to the different subblocks within the same L2
// block will result in a miss" creates EJ locality.
//
// The VEJ (Vector > 1) refines this to coherence-unit granularity: each
// entry carries a present-vector over Vector consecutive units. A snoop
// miss sets the missed unit's bit; when the whole block was absent, the
// bits of every unit of that block (they share an entry chunk) are set —
// the spatial-locality capture of Fig. 3(a).
//
// Address split for a VEJ entry: the low log2(V) unit-address bits select
// the vector bit; the next log2(S) bits the set; the rest is the tag. A
// plain EJ indexes sets with *block*-address bits. The two therefore use
// different PA bits for the set index — the effect §4.3.2 observes.
//
// Every snoop costs one scan of one set: the scan that looks for the tag
// also picks the way a miss would replace, and the SnoopMiss that follows
// an unfiltered probe reuses both answers.
type Exclude struct {
	cfg           ExcludeConfig
	unitsPerBlock int

	// Precomputed address-split geometry (shifts and masks derived once
	// from the configuration, so every probe is pure bit arithmetic).
	vecBits   uint
	vecMask   uint64
	setBits   uint
	setMask   uint64
	tagShift  uint
	blockBits uint64 // a whole block's present bits, at vector offset 0

	// Entries are array-of-struct: a lookup reads each way's tag,
	// present-vector and recency stamp from one place.
	ents []ejEntry // sets*ways

	// Recency is a per-entry timestamp: a touch is one store (stamp =
	// clock++) and the victim is the way with the minimum stamp. Valid
	// entries are stamped from clock, which starts at Ways; an invalid
	// entry holds its way index instead. So the minimum is the first
	// invalid way if there is one, else the least recently touched —
	// exactly rank-based LRU, since all stamps in a set are distinct.
	clock uint64

	// One-shot probe memo: Probe records the key it just looked up, the
	// matching way (or -1) and the way a miss would replace, so the
	// SnoopMiss that immediately follows an unfiltered snoop skips the
	// second scan. Every mutating entry point consumes or invalidates it,
	// so it never survives past the next call of any kind.
	memoKey uint64
	memoW   int32
	memoV   int32
	memoOK  bool

	count energy.FilterCounts
}

// ejEntry is one exclude-JETTY entry. pv == 0 marks an invalid entry.
type ejEntry struct {
	tag   uint64
	pv    uint64 // present-vector bitmask
	stamp uint64 // recency: clock at the last touch, or the way index while invalid
}

// NewExclude builds an EJ/VEJ for a machine whose L2 blocks hold
// unitsPerBlock coherence units. It panics on an invalid configuration
// (construction is programmer-controlled; see Validate).
func NewExclude(cfg ExcludeConfig, unitsPerBlock int) *Exclude {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if unitsPerBlock < 1 || unitsPerBlock&(unitsPerBlock-1) != 0 {
		panic(fmt.Sprintf("jetty: units per block %d not a positive power of two", unitsPerBlock))
	}
	if cfg.Vector > 1 && cfg.Vector < unitsPerBlock {
		// A vector entry must cover whole blocks for the block-absent
		// fan-out to stay within one entry.
		panic(fmt.Sprintf("jetty: vector %d smaller than units per block %d", cfg.Vector, unitsPerBlock))
	}
	n := cfg.Entries()
	vecBits := uint(log2(cfg.Vector))
	setBits := uint(log2(cfg.Sets))
	e := &Exclude{
		cfg:           cfg,
		unitsPerBlock: unitsPerBlock,
		vecBits:       vecBits,
		vecMask:       mask(int(vecBits)),
		setBits:       setBits,
		setMask:       mask(int(setBits)),
		tagShift:      vecBits + setBits,
		blockBits:     mask(unitsPerBlock),
		ents:          make([]ejEntry, n),
	}
	e.Reset()
	return e
}

// Name implements Filter.
func (e *Exclude) Name() string { return e.cfg.Name() }

// Config returns the filter's configuration.
func (e *Exclude) Config() ExcludeConfig { return e.cfg }

// key returns the address the filter tracks an entry under: the block
// address for plain EJ, the unit address for VEJ.
func (e *Exclude) key(unit, block uint64) uint64 {
	if e.cfg.Vector > 1 {
		return unit
	}
	return block
}

// split decomposes a tracked address into (set, tag, vector bit mask).
func (e *Exclude) split(key uint64) (set int, tag uint64, bit uint64) {
	bit = uint64(1) << (key & e.vecMask)
	set = int((key >> e.vecBits) & e.setMask)
	tag = key >> e.tagShift
	return set, tag, bit
}

// find scans set for tag. It returns the matching way, or -1 together
// with the way a miss should replace: the minimum stamp, which is the
// first invalid way if any, else the least recently touched one.
func (e *Exclude) find(set int, tag uint64) (w, victim int) {
	base := set * e.cfg.Ways
	ways := e.ents[base : base+e.cfg.Ways]
	oldest := ^uint64(0)
	for i := range ways {
		ent := &ways[i]
		if ent.tag == tag && ent.pv != 0 {
			return i, -1
		}
		if ent.stamp < oldest {
			victim, oldest = i, ent.stamp
		}
	}
	return -1, victim
}

// touch promotes way w of set to most-recently-used.
func (e *Exclude) touch(set, w int) {
	e.ents[set*e.cfg.Ways+w].stamp = e.clock
	e.clock++
}

// Probe implements Filter: a snoop is filtered iff a matching entry has
// the tracked address's present bit set (guaranteed absent from L2).
func (e *Exclude) Probe(unit, block uint64) bool {
	e.count.Probes++
	if e.probe(unit, block) {
		e.count.Filtered++
		return true
	}
	return false
}

// probe is the uncounted lookup, shared with the hybrid. A hit refreshes
// the entry's recency: addresses that keep being snooped stay resident.
func (e *Exclude) probe(unit, block uint64) bool {
	key := e.key(unit, block)
	set, tag, bit := e.split(key)
	w, v := e.find(set, tag)
	e.memoKey, e.memoW, e.memoV, e.memoOK = key, int32(w), int32(v), true
	if w >= 0 && e.ents[set*e.cfg.Ways+w].pv&bit != 0 {
		e.touch(set, w)
		return true
	}
	return false
}

// Peek implements Filter: a side-effect-free Probe.
func (e *Exclude) Peek(unit, block uint64) bool {
	set, tag, bit := e.split(e.key(unit, block))
	w, _ := e.find(set, tag)
	return w >= 0 && e.ents[set*e.cfg.Ways+w].pv&bit != 0
}

// SnoopMiss implements Filter: record that a snoop missed in the local
// L2. blockAbsent reports whether the whole block's tag missed (rather
// than a tag hit with the snooped unit invalid). The plain EJ can only
// learn whole-block absences; the VEJ records the unit — and on a whole-
// block absence, every unit of that block.
func (e *Exclude) SnoopMiss(unit, block uint64, blockAbsent bool) {
	if e.cfg.Vector == 1 {
		if !blockAbsent {
			return // only a subblock missed: no block-level guarantee
		}
		e.recordKeyBits(block, 1)
		return
	}
	if blockAbsent {
		// All units of the block share this entry (Vector >= units/block)
		// as one run of bits starting at the block's first unit.
		first := block * uint64(e.unitsPerBlock)
		e.recordKeyBits(unit, e.blockBits<<(first&e.vecMask))
		return
	}
	_, _, bit := e.split(unit)
	e.recordKeyBits(unit, bit)
}

// recordKeyBits sets the present bits pv in the entry tracking key,
// allocating (with LRU replacement) if needed.
func (e *Exclude) recordKeyBits(key uint64, pv uint64) {
	set, tag, _ := e.split(key)
	var w, v int
	if e.memoOK && e.memoKey == key {
		w, v = int(e.memoW), int(e.memoV)
	} else {
		w, v = e.find(set, tag)
	}
	e.memoOK = false
	if w < 0 {
		w = v
		e.ents[set*e.cfg.Ways+w] = ejEntry{tag: tag}
	}
	ent := &e.ents[set*e.cfg.Ways+w]
	if ent.pv&pv != pv {
		ent.pv |= pv
		e.count.EJWrites++
	}
	e.touch(set, w)
}

// Fill implements Filter: the local L2 gained unit, so any matching
// present bit must be cleared to preserve safety. For the plain EJ the
// whole block entry clears (the block is no longer wholly absent); for
// the VEJ only the filled unit's bit clears.
func (e *Exclude) Fill(unit, block uint64) {
	e.memoOK = false
	set, tag, bit := e.split(e.key(unit, block))
	w, _ := e.find(set, tag)
	if w < 0 {
		return
	}
	ent := &e.ents[set*e.cfg.Ways+w]
	if ent.pv&bit == 0 {
		return
	}
	ent.pv &^= bit
	e.count.EJWrites++
	if ent.pv == 0 {
		ent.stamp = uint64(w) // invalid: ahead of every valid way as a victim
	}
}

// Claims calls fn with every coherence unit the filter claims absent,
// until fn returns false. It walks the valid entries: a plain EJ entry
// claims every unit of its block, a VEJ entry the units whose present
// bits are set. It has no side effects, so safety audits can enumerate
// the filter's claims from its few entries instead of peeking at every
// cached unit.
func (e *Exclude) Claims(fn func(unit uint64) bool) {
	upb := uint64(e.unitsPerBlock)
	for i, ent := range e.ents {
		if ent.pv == 0 {
			continue
		}
		key := ent.tag<<e.tagShift | uint64(i/e.cfg.Ways)<<e.vecBits
		if e.cfg.Vector == 1 {
			for u := key * upb; u < (key+1)*upb; u++ {
				if !fn(u) {
					return
				}
			}
			continue
		}
		for pv := ent.pv; pv != 0; pv &= pv - 1 {
			if !fn(key | uint64(bits.TrailingZeros64(pv))) {
				return
			}
		}
	}
}

// BlockAllocated implements Filter; exclude structures ignore tag events
// (Fill already clears entries).
func (e *Exclude) BlockAllocated(block uint64) {}

// BlockEvicted implements Filter; exclude structures ignore tag events.
// (An eviction makes units *absent*, which an EJ only learns from future
// snoop misses — recording it here would be an optimization the paper
// does not perform.)
func (e *Exclude) BlockEvicted(block uint64) {}

// Counts implements Filter.
func (e *Exclude) Counts() energy.FilterCounts { return e.count }

// Reset implements Filter.
func (e *Exclude) Reset() {
	e.memoOK = false
	ways := e.cfg.Ways
	for i := range e.ents {
		e.ents[i] = ejEntry{stamp: uint64(i % ways)}
	}
	e.clock = uint64(ways)
	e.count = energy.FilterCounts{}
}

// log2 returns log2 for exact powers of two.
func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
