package smp

import (
	"runtime"

	"jetty/internal/jetty"
)

// The filter banks are driven through event logs. A JETTY only decides
// whether a snoop may skip its tag probe; the protocol never reads
// filter state. So the machine records every filter event — a snoop
// probe, a unit fill, a block allocation or eviction — as one packed
// word in the log of the node whose bank it drives, and apply, the only
// code that drives a filter, delivers one node's words to its bank in
// log order. Filters on different nodes share no state, so each filter
// sees exactly the event sequence it would have seen had it been called
// inline, whatever order the nodes' logs are applied in.
//
// From StepBatch on, full chunks of a node's log go to that node's
// companion goroutine, one per node, which drives the node's bank while
// the machine steps on; no companion ever reads another node's events.
// StepBatch leaves the pipeline on when it returns, so the companions
// keep draining while the caller produces the next batch; only what
// reads filter state waits for all of them (join): Step,
// DrainWriteBuffers, FilterCounts (and so Coverage and
// CheckFilterSafety), every sampler window, SetSampler and Close. Step,
// DrainWriteBuffers and Close also end the pipeline (endPipeline), so
// Step and DrainWriteBuffers apply their events inline on the caller's
// goroutine.

// Event word layout: kind in bits 0-1, the snoop's present and
// blockAbsent flags in bits 2-3, and the unit (snoop, fill) or block
// (alloc, evict) above; a 36-bit physical address leaves both well
// inside 60 bits. The node is implicit: it owns the log.
const (
	evSnoop uint64 = iota
	evFill
	evAlloc
	evEvict

	evKindMask    = 3
	evPresent     = 1 << 2
	evBlockAbsent = 1 << 3
	evArgShift    = 4
)

const (
	chunkEvents = 1 << 10 // events per chunk
	ringChunks  = 4       // chunks per node log: one filling, the rest queued or free
)

type chunk [chunkEvents]uint64

// eventLog is the machine side of one node's log: the chunk being
// filled and the ring's empty chunks.
type eventLog struct {
	buf      *chunk
	n        int
	spare    []*chunk // empty chunks the machine holds besides buf
	inFlight int      // chunks the companion has not returned yet
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

// filterPipe is the consumer side of one node's log: the node's bank
// and the channels to its companion. It never references the System, so
// a machine dropped without Close can still be collected, and its
// cleanup then stops the companions. The pipes are their own
// allocation, off the cache lines of the machine's per-node state.
type filterPipe struct {
	bank     nodeBank
	upbShift uint

	// Both channels hold up to ringChunks chunks, every chunk the node's
	// log owns, so the companion never blocks returning one.
	full chan *chunk // filled chunks to the companion; closed by stop
	free chan *chunk // applied chunks, back to the machine; closed when the companion exits
}

// apply delivers one node's events to its bank in log order, auditing
// every probe that filtered a snoop to a present unit.
func (p *filterPipe) apply(evs []uint64) {
	b := &p.bank
	for _, ev := range evs {
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

// serve is a companion goroutine: it applies its node's chunks as they
// arrive and exits when stop closes the channel.
func (p *filterPipe) serve() {
	for c := range p.full {
		p.apply(c[:])
		p.free <- c
	}
	close(p.free)
}

// stop ends the companion once it has drained its queue.
func (p *filterPipe) stop() { close(p.full) }

// stopCompanions is the cleanup of a machine dropped without Close.
func stopCompanions(pipes []filterPipe) {
	for i := range pipes {
		pipes[i].stop()
	}
}

// emit appends one filter event to node n's log.
func (s *System) emit(n *node, ev uint64) {
	l := &n.log
	l.buf[l.n&(chunkEvents-1)] = ev
	l.n++
	if l.n == chunkEvents {
		s.spill(n)
	}
}

// spill empties node n's full log: to its companion while the pipeline
// is on, inline otherwise.
func (s *System) spill(n *node) {
	l, p := &n.log, &s.pipes[n.id]
	if !s.pipelined {
		p.apply(l.buf[:])
		l.n = 0
		return
	}
	if p.full == nil {
		s.startCompanions()
	}
	p.full <- l.buf
	l.inFlight++
	if k := len(l.spare); k > 0 {
		l.buf, l.spare = l.spare[k-1], l.spare[:k-1]
	} else {
		l.buf = <-p.free
		l.inFlight--
	}
	l.n = 0
}

// startCompanions creates every node's chunk ring and companion
// goroutine, once per machine, on the first chunk StepBatch hands
// off.
func (s *System) startCompanions() {
	for i := range s.pipes {
		p, l := &s.pipes[i], &s.nodes[i].log
		p.full = make(chan *chunk, ringChunks)
		p.free = make(chan *chunk, ringChunks)
		l.spare = make([]*chunk, ringChunks-1, ringChunks)
		for j := range l.spare {
			l.spare[j] = new(chunk)
		}
		go p.serve()
	}
	s.cleanup = runtime.AddCleanup(s, stopCompanions, s.pipes)
}

// beginPipeline routes full chunks to the companions until endPipeline.
// A machine without filters, or a closed one, keeps applying inline.
func (s *System) beginPipeline() {
	s.pipelined = !s.closed && len(s.cfg.Filters) > 0
}

// join brings every bank up to date with the machine: it takes back
// every chunk handed to a companion, which returns each one once it is
// applied, then applies the node's partial chunk inline. Afterwards the
// caller's goroutine may read filter state.
func (s *System) join() {
	for i := range s.nodes {
		l, p := &s.nodes[i].log, &s.pipes[i]
		for ; l.inFlight > 0; l.inFlight-- {
			l.spare = append(l.spare, <-p.free)
		}
		if l.n > 0 {
			p.apply(l.buf[:l.n])
			l.n = 0
		}
	}
}

// endPipeline joins and returns to inline application.
func (s *System) endPipeline() {
	s.join()
	s.pipelined = false
}

// Close stops the machine's companion goroutines and waits for them to
// exit. The machine stays usable, applying every filter event inline.
// Close is idempotent. A machine dropped without Close releases its
// goroutines when it is garbage collected.
func (s *System) Close() {
	s.endPipeline()
	if s.pipes[0].full != nil && !s.closed {
		s.cleanup.Stop()
		for i := range s.pipes {
			p := &s.pipes[i]
			p.stop()
			for range p.free {
			}
		}
	}
	s.closed = true
}
