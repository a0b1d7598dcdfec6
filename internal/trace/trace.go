package trace

import "fmt"

// Op is a memory operation kind.
type Op uint8

// Memory operation kinds.
const (
	Read Op = iota
	Write
)

// String returns "R" or "W".
func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Ref is a single memory reference issued by one CPU.
type Ref struct {
	Op   Op
	Addr uint64
}

// Rec is one decoded trace record: the issuing CPU and its reference,
// packed flat into 16 bytes so batched decoding (Reader.ReadBatch) fills
// caller-owned []Rec buffers with minimal memory traffic and replay
// loops stream records without per-record interface hops.
type Rec struct {
	Addr uint64
	CPU  int32
	Op   Op
}

// Source produces per-CPU reference streams. Implementations must be
// deterministic for a fixed construction (seeded), so experiments are
// reproducible. Next returns ok=false when cpu's stream is exhausted.
type Source interface {
	// CPUs returns the number of CPU streams the source produces.
	CPUs() int
	// Next returns the next reference for the given CPU.
	Next(cpu int) (Ref, bool)
}

// SliceSource is a Source backed by in-memory per-CPU slices. It is mainly
// useful in tests and examples where a hand-written reference sequence is
// clearer than a generator.
type SliceSource struct {
	refs [][]Ref
	pos  []int
}

// NewSliceSource returns a SliceSource over the given per-CPU slices.
func NewSliceSource(perCPU ...[]Ref) *SliceSource {
	return &SliceSource{refs: perCPU, pos: make([]int, len(perCPU))}
}

// CPUs implements Source.
func (s *SliceSource) CPUs() int { return len(s.refs) }

// Next implements Source.
func (s *SliceSource) Next(cpu int) (Ref, bool) {
	if s.pos[cpu] >= len(s.refs[cpu]) {
		return Ref{}, false
	}
	r := s.refs[cpu][s.pos[cpu]]
	s.pos[cpu]++
	return r, true
}

// RoundRobin interleaves the per-CPU streams of a Source into one
// record stream: one reference per live CPU per turn, in CPU order. A
// stream that reports exhaustion is skipped from then on. It is the only
// code that turns per-CPU streams into records, so a run and the trace
// Record writes of it see the same order.
type RoundRobin struct {
	src  Source
	cpu  int // the CPU whose turn is next
	dead []bool
	live int
}

// NewRoundRobin returns the interleaver of src's streams.
func NewRoundRobin(src Source) *RoundRobin {
	return &RoundRobin{src: src, dead: make([]bool, src.CPUs()), live: src.CPUs()}
}

// Fill writes the next records into dst and returns how many it wrote,
// fewer than len(dst) only once every stream is exhausted. It takes a
// reference from a stream only when dst has room for it.
func (rr *RoundRobin) Fill(dst []Rec) int {
	n := 0
	for n < len(dst) && rr.live > 0 {
		cpu := rr.cpu
		if rr.cpu++; rr.cpu == len(rr.dead) {
			rr.cpu = 0
		}
		if rr.dead[cpu] {
			continue
		}
		ref, ok := rr.src.Next(cpu)
		if !ok {
			rr.dead[cpu] = true
			rr.live--
			continue
		}
		dst[n] = Rec{Addr: ref.Addr, CPU: int32(cpu), Op: ref.Op}
		n++
	}
	return n
}

// FuncSource adapts a function to the Source interface.
type FuncSource struct {
	NumCPUs int
	Fn      func(cpu int) (Ref, bool)
}

// CPUs implements Source.
func (f *FuncSource) CPUs() int { return f.NumCPUs }

// Next implements Source.
func (f *FuncSource) Next(cpu int) (Ref, bool) { return f.Fn(cpu) }
