package smp

import (
	"runtime"

	"jetty/internal/addr"
	"jetty/internal/bus"
	"jetty/internal/cache"
	"jetty/internal/energy"
	"jetty/internal/metrics"
	"jetty/internal/trace"
)

// CPUStats holds the processor-side counters of one CPU that are not part
// of the L2 energy accounting (which lives in energy.Counts).
type CPUStats struct {
	Loads, Stores uint64

	WBForwards  uint64 // loads served by a pending store
	WBCoalesced uint64 // stores merged into a pending entry
	WBDrains    uint64 // stores performed in the hierarchy

	L1Probes     uint64 // L1 tag probes from the core side
	L1Hits       uint64
	L1Misses     uint64
	L1Writebacks uint64 // dirty L1 victims written into L2

	L1SnoopProbes uint64 // L1 probes caused by snoops (inclusion actions)
}

// Add accumulates other into s.
func (s *CPUStats) Add(o CPUStats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.WBForwards += o.WBForwards
	s.WBCoalesced += o.WBCoalesced
	s.WBDrains += o.WBDrains
	s.L1Probes += o.L1Probes
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.L1Writebacks += o.L1Writebacks
	s.L1SnoopProbes += o.L1SnoopProbes
}

// node is one processor: core-side buffers, caches and counters. Caches
// and write buffer are embedded by value so one node is one contiguous
// region. Its filter bank lives in its filter pipe (pipeline.go); log
// holds the bank's pending events.
type node struct {
	id  int
	l1  cache.L1
	l2  cache.L2
	wb  writeBuffer
	cpu CPUStats
	l2c energy.Counts
	log eventLog
}

// System is the simulated SMP machine.
type System struct {
	cfg  Config
	geom addr.Geometry

	// Precomputed address geometry: every granularity conversion on the
	// per-reference hot path is a shift against these instead of a
	// division through the Geometry methods.
	lineShift    uint // byte address >> lineShift == L1 line number
	unitShift    uint // L1 line number >> unitShift == coherence unit
	upbShift     uint // unit >> upbShift == L2 block
	linesPerUnit int  // 1 << unitShift

	// nodes is a value slice: the per-CPU state sits contiguously, so the
	// per-reference node lookup and the snoop broadcast walk memory
	// instead of chasing per-node pointers.
	nodes []node
	bus   *bus.Stats

	refs uint64 // total references processed

	// Interval sampling (SetSampler). nextSample is the refs value of the
	// next window boundary; with no sampler attached it is ^uint64(0), so
	// the per-access equality check never fires. Sampling only reads
	// counters: results are bit-identical with and without it.
	sampler    *metrics.Sampler
	nextSample uint64

	// Filter pipes (pipeline.go), one per node: the banks each node's
	// event log drives.
	pipes     []filterPipe
	pipelined bool // full chunks go to the companions (from StepBatch on)
	closed    bool
	cleanup   runtime.Cleanup
}

// New builds a system. It panics on an invalid configuration (machine
// construction is programmer-controlled; use Config.Validate for input
// checking).
func New(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	geom := cfg.L2.Geom
	unitShift := uint(addr.Log2(uint64(geom.UnitBytes() / cfg.L1.LineBytes)))
	upbShift := uint(addr.Log2(uint64(geom.UnitsPerBlock)))
	s := &System{
		cfg:          cfg,
		geom:         geom,
		lineShift:    uint(addr.Log2(uint64(cfg.L1.LineBytes))),
		unitShift:    unitShift,
		upbShift:     upbShift,
		linesPerUnit: 1 << unitShift,
		bus:          bus.NewStats(cfg.CPUs),
		nodes:        make([]node, cfg.CPUs),
		nextSample:   noSample,
		pipes:        make([]filterPipe, cfg.CPUs),
	}
	for i := range s.nodes {
		n := &s.nodes[i]
		n.id = i
		n.l1 = *cache.NewL1(cfg.L1)
		n.l2 = *cache.NewL2(cfg.L2)
		n.wb = *newWriteBuffer(cfg.WBEntries)
		n.log.buf = new(chunk)
		p := &s.pipes[i]
		p.upbShift = upbShift
		for _, fc := range cfg.Filters {
			p.bank.add(fc.New(cfg.L2.Geom.UnitsPerBlock))
		}
	}
	return s
}

// Config returns the machine configuration.
func (s *System) Config() Config { return s.cfg }

// Geometry returns the coherence geometry.
func (s *System) Geometry() addr.Geometry { return s.geom }

// Refs returns the number of references processed so far.
func (s *System) Refs() uint64 { return s.refs }

// Step processes one memory reference from the given CPU, applying its
// filter events inline before it returns: a one-record batch, held on
// the stack, through the same body as StepBatch. It first ends a
// pipeline a preceding StepBatch left on.
func (s *System) Step(cpu int, ref trace.Ref) {
	s.endPipeline()
	rec := [1]trace.Rec{{Addr: ref.Addr, CPU: int32(cpu), Op: ref.Op}}
	s.steps(rec[:])
	s.join()
}

// StepBatch processes records in order. It is the allocation-free inner
// loop of every run: the sim layer hands it whole batches of memoized,
// generated or decoded records, with no per-record Source round trip.
// StepBatch drives the filter banks on the companion goroutines, and it
// does not join them when it returns: the pipeline stays on across
// batches until something reads filter state (see pipeline.go).
func (s *System) StepBatch(recs []trace.Rec) {
	s.beginPipeline()
	s.steps(recs)
}

// steps is the machine's only stepping code: Step and StepBatch both
// run their records through it, leaving the filter events in the log.
//
// The dispatch is a single-exit if/else chain (no early returns): the
// interval-sampling boundary check at the bottom must see every
// reference, whichever path resolved it. With no sampler attached the
// check is one always-false uint64 comparison.
func (s *System) steps(recs []trace.Rec) {
	for i := range recs {
		cpu, op, a := recs[i].CPU, recs[i].Op, recs[i].Addr
		n := &s.nodes[cpu]
		s.refs++
		line := (a & addr.PhysMask) >> s.lineShift

		if op == trace.Write {
			n.cpu.Stores++
			if n.wb.contains(line) {
				n.cpu.WBCoalesced++
			} else {
				s.store(n, line)
			}
		} else {
			n.cpu.Loads++
			if n.wb.contains(line) {
				n.cpu.WBForwards++
			} else {
				// L1-hit loads resolve right here: the dominant path of
				// every run pays no extra call.
				n.cpu.L1Probes++
				if n.l1.Contains(line) {
					n.cpu.L1Hits++
				} else {
					n.cpu.L1Misses++
					s.loadMiss(n, line)
				}
			}
		}
		if s.refs == s.nextSample {
			s.sampleWindow()
		}
	}
}

// store enqueues one buffered store, draining the displaced entry. This
// is the writeBuffer's only insert path: a full buffer — the steady
// state — replaces the oldest entry in place, an unbuffered machine
// (cap 0) drains immediately, and a drained line whose L1 copy is
// already dirty resolves in drainStore's fast path.
func (s *System) store(n *node, line uint64) {
	w := &n.wb
	if w.cap == 0 {
		s.drainStore(n, line)
		return
	}
	if w.n < w.cap {
		idx := w.head + w.n
		if idx >= w.cap {
			idx -= w.cap
		}
		w.buf[idx] = line
		w.add(line)
		w.n++
		return
	}
	drain := w.buf[w.head]
	w.remove(drain)
	w.buf[w.head] = line
	w.add(line)
	w.head++
	if w.head == w.cap {
		w.head = 0
	}
	s.drainStore(n, drain)
}

// DrainWriteBuffers performs all pending stores (end-of-run cleanup so
// that store counts reconcile), applying their filter events inline.
func (s *System) DrainWriteBuffers() {
	s.endPipeline()
	for i := range s.nodes {
		n := &s.nodes[i]
		for _, line := range n.wb.drainAll() {
			s.drainStore(n, line)
		}
	}
	s.join()
}

// loadMiss performs a processor load that missed in the L1 (Step already
// counted the probe and miss).
func (s *System) loadMiss(n *node, line uint64) {
	unit := line >> s.unitShift
	block := unit >> s.upbShift

	// L2 local read probe. The frame handle from the single associative
	// search is reused for the touch, the fill and the inL1 update.
	n.l2c.LocalReads++
	f := n.l2.FindBlock(block)
	if f.Ok() && n.l2.StateAt(f, unit).Valid() {
		n.l2c.LocalReadHits++
		n.l2.TouchAt(f)
	} else {
		f = s.busRead(n, unit, block)
	}
	s.fillL1(n, line, f, unit)
}

// drainStore performs one pending store (an L1-line write) in the
// hierarchy, acquiring write permission as needed. The dominant case —
// the line is already dirty in L1, so ownership is held and nothing
// moves — is the inlinable fast path; everything else is drainStoreSlow.
func (s *System) drainStore(n *node, line uint64) {
	n.cpu.WBDrains++
	n.cpu.L1Probes++
	if n.l1.Dirty(line) {
		// Ownership was acquired when the line was first dirtied.
		n.cpu.L1Hits++
		return
	}
	s.drainStoreSlow(n, line)
}

// drainStoreSlow is the not-already-dirty remainder of drainStore; the
// probe and drain counters are already recorded (except L1Hits).
func (s *System) drainStoreSlow(n *node, line uint64) {
	unit := line >> s.unitShift
	block := unit >> s.upbShift

	if present, _, excl, f := n.l1.Lookup(line); present {
		n.cpu.L1Hits++
		if excl {
			// MESI-in-L1 silent upgrade: the L2 unit is still M/E (snoop
			// downgrades clear the hint), so the store proceeds without
			// an L2 access; the L2 learns at writeback time. f is the
			// line's cached L2 frame (valid by inclusion).
			st := n.l2.StateAt(f, unit)
			if !st.Writable() {
				panic("smp: stale L1 exclusivity hint")
			}
			if st == cache.Exclusive {
				n.l2.SetStateAt(f, unit, cache.Modified)
			}
			n.l1.MarkDirty(line)
			return
		}
		s.ensureWritable(n, f, unit, block)
		n.l1.MarkDirty(line)
		return
	}
	n.cpu.L1Misses++

	// Write-allocate: obtain the unit writable in L2, then fill L1 dirty.
	n.l2c.LocalWrites++
	f := n.l2.FindBlock(block)
	st := cache.Invalid
	if f.Ok() {
		st = n.l2.StateAt(f, unit)
	}
	switch {
	case st.Writable():
		n.l2c.LocalWriteHits++
		n.l2.TouchAt(f)
		if st == cache.Exclusive {
			n.l2.SetStateAt(f, unit, cache.Modified)
			n.l2c.LocalStateWrite++
		}
	case st.Valid(): // Shared or Owned: upgrade in place
		n.l2c.LocalWriteHits++
		n.l2.TouchAt(f)
		s.busUpgrade(n, f, unit, block)
	default:
		f = s.busReadX(n, unit, block)
	}
	s.fillL1(n, line, f, unit)
	n.l1.MarkDirty(line)
	// The L2 copy is now stale relative to L1 until the line drains back;
	// the unit must be (and is) Modified.
}

// ensureWritable upgrades the L2 unit to Modified for a store hitting a
// clean L1 line. The unit is valid in L2 (inclusion) in the given frame
// (the L1 line's cached one), but its coherence state must be read — and
// possibly upgraded — so this is a local L2 access (a write hit).
func (s *System) ensureWritable(n *node, f cache.Frame, unit, block uint64) {
	n.l2c.LocalWrites++
	n.l2c.LocalWriteHits++
	n.l2.TouchAt(f)
	switch st := n.l2.StateAt(f, unit); st {
	case cache.Modified:
		return
	case cache.Exclusive:
		n.l2.SetStateAt(f, unit, cache.Modified)
		n.l2c.LocalStateWrite++
	case cache.Shared, cache.Owned:
		// Write hit on a shared copy: bus upgrade (the "snoop on an L2
		// hit" case Table 2's caption calls out).
		s.busUpgrade(n, f, unit, block)
	default:
		panic("smp: dirty/clean L1 line over invalid L2 unit (inclusion violated)")
	}
}

// fillL1 installs a line in the L1, handling the displaced victim (dirty
// victims write back into the L2, which holds them Modified). The line's
// exclusivity hint mirrors whether the L2 unit is writable right now. f
// is the unit's resident L2 frame, cached in the line word.
func (s *System) fillL1(n *node, line uint64, f cache.Frame, unit uint64) {
	victim, had := n.l1.Fill(line, n.l2.StateAt(f, unit).Writable(), f)
	if had {
		s.l1VictimWriteback(n, victim)
	}
	n.l2.SetInL1At(f, unit, true)
}

// l1VictimWriteback handles a line displaced from the L1. v.Frame is the
// victim unit's L2 frame (valid by inclusion until this moment).
func (s *System) l1VictimWriteback(n *node, v cache.Victim) {
	vUnit := v.Line >> s.unitShift
	if v.Dirty {
		// Dirty L1 data merges into the L2 copy: a local L2 write access.
		n.cpu.L1Writebacks++
		n.l2c.LocalWrites++
		n.l2c.LocalWriteHits++ // inclusion guarantees the unit is present (Modified)
	}
	s.clearInL1IfGone(n, vUnit, v.Frame)
}

// clearInL1IfGone drops the L2's inL1 hint when no L1 line covering the
// unit remains (a unit may span multiple L1 lines in the NSB geometry).
// f is the unit's L2 frame.
func (s *System) clearInL1IfGone(n *node, unit uint64, f cache.Frame) {
	firstLine := unit << s.unitShift
	for i := 0; i < s.linesPerUnit; i++ {
		if n.l1.Contains(firstLine + uint64(i)) {
			return
		}
	}
	n.l2.SetInL1At(f, unit, false)
}

// unitOfLine converts an L1 line number to a coherence-unit number.
func (s *System) unitOfLine(line uint64) uint64 {
	return line >> s.unitShift
}
