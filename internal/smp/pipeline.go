package smp

import (
	"runtime"

	"jetty/internal/jetty"
)

// The filter banks are driven through an event log. A JETTY only decides
// whether a snoop may skip its tag probe; the protocol never reads
// filter state. So the machine records every filter event — a snoop
// probe, a unit fill, a block allocation or eviction — as one packed
// word, and apply, the only code that drives a filter, delivers the
// words to the banks in log order. Each filter therefore sees exactly
// the event sequence it would have seen had it been called inline.
//
// Inside Run and StepBatch full chunks of the log go to one companion
// goroutine per machine, which drives the banks while the machine steps
// on. Everything that reads filter state waits for it first (join):
// the end of Run, StepBatch and DrainWriteBuffers, every sampler window,
// SetSampler and Close. Step and DrainWriteBuffers apply their events
// inline on the caller's goroutine.

// Event word layout: kind in bits 0-1, the snoop's present and
// blockAbsent flags in bits 2-3, the node in bits 4-9 (Config allows at
// most 64 CPUs) and the unit (snoop, fill) or block (alloc, evict) above;
// a 36-bit physical address leaves both well inside 54 bits.
const (
	evSnoop uint64 = iota
	evFill
	evAlloc
	evEvict

	evKindMask    = 3
	evPresent     = 1 << 2
	evBlockAbsent = 1 << 3
	evNodeShift   = 4
	evNodeMask    = 63
	evArgShift    = 10
)

const (
	chunkEvents = 1 << 10 // events per chunk
	ringChunks  = 4       // chunks per machine: one filling, the rest queued or free
)

type chunk [chunkEvents]uint64

// chunkMsg hands one filled chunk to the companion.
type chunkMsg struct {
	buf *chunk
	n   int
}

// nodeBank is one node's filter bank. The filters are also grouped by
// concrete type so apply makes direct (inlinable) calls instead of
// interface dispatch; filters are independent observers, so driving the
// groups in type order delivers each filter the same sequence as bank
// order. The idx slices map group members back to bank positions.
type nodeBank struct {
	filters  []jetty.Filter
	ejs      []*jetty.Exclude
	ejIdx    []int
	ijs      []*jetty.Include
	ijIdx    []int
	hjs      []*jetty.Hybrid
	hjIdx    []int
	gen      []jetty.Filter // any other Filter implementation
	genIdx   []int
	unsafeFl []uint64 // per-filter count of filtered-but-present snoops (must stay 0)
	_        [16]byte // pads the bank to 256 bytes, a whole number of cache lines
}

// add slots a filter into the bank and its concrete-type group.
func (b *nodeBank) add(f jetty.Filter) {
	idx := len(b.filters)
	b.filters = append(b.filters, f)
	b.unsafeFl = append(b.unsafeFl, 0)
	switch t := f.(type) {
	case *jetty.Exclude:
		b.ejs = append(b.ejs, t)
		b.ejIdx = append(b.ejIdx, idx)
	case *jetty.Include:
		b.ijs = append(b.ijs, t)
		b.ijIdx = append(b.ijIdx, idx)
	case *jetty.Hybrid:
		b.hjs = append(b.hjs, t)
		b.hjIdx = append(b.hjIdx, idx)
	default:
		b.gen = append(b.gen, f)
		b.genIdx = append(b.genIdx, idx)
	}
}

// filterPipe is the consumer side of the log: the banks and the
// channels to the companion. It never references the System, so a
// machine dropped without Close can still be collected, and its cleanup
// then stops the companion. The banks are their own allocation, off the
// cache lines of the machine's per-node counters.
type filterPipe struct {
	banks    []nodeBank
	upbShift uint

	// Both channels hold up to ringChunks chunks, every chunk a machine
	// owns, so the companion never blocks returning one.
	full chan chunkMsg // to the companion; closed by stop
	free chan *chunk   // applied chunks, back to the machine; closed when the companion exits
}

// apply delivers events to the banks in log order, auditing every probe
// that filtered a snoop to a present unit.
func (p *filterPipe) apply(evs []uint64) {
	for _, ev := range evs {
		b := &p.banks[ev>>evNodeShift&evNodeMask]
		x := ev >> evArgShift
		switch ev & evKindMask {
		case evSnoop:
			unit, block := x, x>>p.upbShift
			present, blockAbsent := ev&evPresent != 0, ev&evBlockAbsent != 0
			for k, fl := range b.ejs {
				if fl.Probe(unit, block) {
					if present {
						b.unsafeFl[b.ejIdx[k]]++
					}
				} else if !present {
					fl.SnoopMiss(unit, block, blockAbsent)
				}
			}
			for k, fl := range b.ijs {
				if fl.Probe(unit, block) {
					if present {
						b.unsafeFl[b.ijIdx[k]]++
					}
				} else if !present {
					fl.SnoopMiss(unit, block, blockAbsent)
				}
			}
			for k, fl := range b.hjs {
				if fl.Probe(unit, block) {
					if present {
						b.unsafeFl[b.hjIdx[k]]++
					}
				} else if !present {
					fl.SnoopMiss(unit, block, blockAbsent)
				}
			}
			for k, fl := range b.gen {
				if fl.Probe(unit, block) {
					if present {
						b.unsafeFl[b.genIdx[k]]++
					}
				} else if !present {
					fl.SnoopMiss(unit, block, blockAbsent)
				}
			}
		case evFill:
			// Include.Fill is a no-op, so the include group is skipped.
			unit, block := x, x>>p.upbShift
			for _, fl := range b.ejs {
				fl.Fill(unit, block)
			}
			for _, fl := range b.hjs {
				fl.Fill(unit, block)
			}
			for _, fl := range b.gen {
				fl.Fill(unit, block)
			}
		case evAlloc:
			// Exclude structures ignore block allocation and eviction.
			for _, fl := range b.ijs {
				fl.BlockAllocated(x)
			}
			for _, fl := range b.hjs {
				fl.BlockAllocated(x)
			}
			for _, fl := range b.gen {
				fl.BlockAllocated(x)
			}
		case evEvict:
			for _, fl := range b.ijs {
				fl.BlockEvicted(x)
			}
			for _, fl := range b.hjs {
				fl.BlockEvicted(x)
			}
			for _, fl := range b.gen {
				fl.BlockEvicted(x)
			}
		}
	}
}

// serve is the companion goroutine: it applies chunks as they arrive
// and exits when stop closes the channel.
func (p *filterPipe) serve() {
	for m := range p.full {
		p.apply(m.buf[:m.n])
		p.free <- m.buf
	}
	close(p.free)
}

// stop ends the companion once it has drained the queue.
func (p *filterPipe) stop() { close(p.full) }

// emit appends one filter event to the log.
func (s *System) emit(ev uint64) {
	s.log[s.logN&(chunkEvents-1)] = ev
	s.logN++
	if s.logN == chunkEvents {
		s.spill()
	}
}

// spill empties a full log: to the companion inside Run and StepBatch,
// inline everywhere else.
func (s *System) spill() {
	if !s.pipelined {
		s.pipe.apply(s.log[:s.logN])
		s.logN = 0
		return
	}
	p := s.pipe
	if p.full == nil {
		s.startCompanion()
	}
	p.full <- chunkMsg{s.log, s.logN}
	s.inFlight++
	if n := len(s.spare); n > 0 {
		s.log, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		s.log = <-p.free
		s.inFlight--
	}
	s.logN = 0
}

// startCompanion creates the chunk ring and the companion goroutine,
// once per machine, on the first chunk Run or StepBatch hands off.
func (s *System) startCompanion() {
	p := s.pipe
	p.full = make(chan chunkMsg, ringChunks)
	p.free = make(chan *chunk, ringChunks)
	s.spare = make([]*chunk, ringChunks-1, ringChunks)
	for i := range s.spare {
		s.spare[i] = new(chunk)
	}
	go p.serve()
	s.cleanup = runtime.AddCleanup(s, (*filterPipe).stop, p)
}

// beginPipeline routes full chunks to the companion until join. A
// machine without filters, or a closed one, keeps applying inline.
func (s *System) beginPipeline() {
	s.pipelined = !s.closed && len(s.cfg.Filters) > 0
}

// join brings the banks up to date with the machine: it takes back
// every chunk handed to the companion, which returns each one once it is
// applied, then applies the partial chunk inline. Afterwards the
// caller's goroutine may read filter state.
func (s *System) join() {
	for ; s.inFlight > 0; s.inFlight-- {
		s.spare = append(s.spare, <-s.pipe.free)
	}
	if s.logN > 0 {
		s.pipe.apply(s.log[:s.logN])
		s.logN = 0
	}
}

// endPipeline joins and returns to inline application.
func (s *System) endPipeline() {
	s.join()
	s.pipelined = false
}

// Close stops the machine's companion goroutine and waits for it to
// exit. The machine stays usable, applying every filter event inline.
// Close is idempotent. A machine dropped without Close releases its
// goroutine when it is garbage collected.
func (s *System) Close() {
	s.join()
	if p := s.pipe; p.full != nil && !s.closed {
		s.cleanup.Stop()
		p.stop()
		for range p.free {
		}
	}
	s.closed = true
}
