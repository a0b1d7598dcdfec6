package workload

import (
	"fmt"
	"math/rand"

	"jetty/internal/trace"
)

// Region describes one private working-set tier (per CPU).
type Region struct {
	Frac   float64 // fraction of references
	Bytes  uint64  // region size per CPU
	Stride int     // >0: sequential walk with this stride; 0: uniform random
	// Burst is how many consecutive references reuse the drawn line
	// before a new draw (record-processing locality; 0 or 1 = none).
	// Only meaningful for random (Stride == 0) tiers.
	Burst int
}

// PairSharing describes producer/consumer sharing: CPU i streams writes
// into its pair buffer; CPU (i+1) mod N reads the same buffer a fixed lag
// behind — the dominant SPLASH sharing pattern (§3.1).
type PairSharing struct {
	Frac     float64 // fraction of references
	Bytes    uint64  // pair buffer size
	LagBytes uint64  // consumer distance behind the producer
	Stride   int
}

// MigratorySharing describes lock-protected records that hop processor to
// processor (small critical sections).
type MigratorySharing struct {
	Frac    float64
	Records int // 64-byte records in the region
	Hold    int // consecutive region references before the record advances
}

// WideSharing describes widely-read, rarely-written data: reads replicate
// copies everywhere; each write invalidates them all.
type WideSharing struct {
	Frac      float64
	Bytes     uint64
	WriteFrac float64
}

// ZipfSharing describes a shared region whose 64-byte blocks are
// referenced with zipfian popularity: a few hot blocks absorb most of
// the traffic (every CPU contends on them) while a long tail is touched
// rarely. This is the sharing signature of scale-out server workloads —
// hot web objects, hot database rows — rather than of the SPLASH
// scientific suite, and it is what the scenario workloads are built on.
type ZipfSharing struct {
	Frac      float64
	Bytes     uint64  // region size (64-byte blocks)
	S         float64 // zipf exponent, must be > 1; larger = more skewed
	WriteFrac float64
}

// Spec is the behavioral signature of one application.
type Spec struct {
	Name   string
	Abbrev string

	// Accesses is the reference budget (all CPUs) at Scale == 1.
	Accesses uint64
	// WriteFrac applies to the private tiers.
	WriteFrac float64

	Hot    Region // L1-resident tier
	Warm   Region // L2-resident tier
	Stream Region // beyond-L2 tier (capacity/compulsory misses)

	Pair PairSharing
	Mig  MigratorySharing
	Wide WideSharing
	Zipf ZipfSharing

	// MigrationPeriod, when nonzero, rotates process placement every
	// that-many references per CPU: CPU i starts working on the data set
	// CPU i+1 owned, modeling OS process migration — the paper's §2
	// explanation for the rare snoop hits of throughput workloads. The
	// data stays put; the compute moves.
	MigrationPeriod uint64

	// Phases, when non-empty, makes this a phased scenario: the run
	// splices the phase specs in order, each consuming its Frac of the
	// access budget, all sharing one physical address space (see
	// phased.go). The top-level mixture fields are then unused; only
	// Name, Abbrev, Accesses and Seed apply.
	Phases []Phase `json:",omitempty"`

	Seed int64
}

// Validate reports specification errors.
func (sp Spec) Validate() error {
	if len(sp.Phases) > 0 {
		return sp.validatePhases()
	}
	total := sp.Hot.Frac + sp.Warm.Frac + sp.Stream.Frac + sp.Pair.Frac + sp.Mig.Frac + sp.Wide.Frac + sp.Zipf.Frac
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("workload %s: fractions sum to %.4f, want 1", sp.Name, total)
	}
	if sp.Accesses == 0 {
		return fmt.Errorf("workload %s: zero access budget", sp.Name)
	}
	if sp.WriteFrac < 0 || sp.WriteFrac > 1 || sp.Wide.WriteFrac < 0 || sp.Wide.WriteFrac > 1 {
		return fmt.Errorf("workload %s: write fractions out of range", sp.Name)
	}
	for _, r := range []Region{sp.Hot, sp.Warm, sp.Stream} {
		if r.Frac > 0 && r.Bytes == 0 {
			return fmt.Errorf("workload %s: region with references but no bytes", sp.Name)
		}
	}
	if sp.Pair.Frac > 0 && (sp.Pair.Bytes == 0 || sp.Pair.LagBytes >= sp.Pair.Bytes) {
		return fmt.Errorf("workload %s: bad pair sharing geometry", sp.Name)
	}
	if sp.Mig.Frac > 0 && (sp.Mig.Records <= 0 || sp.Mig.Hold <= 0) {
		return fmt.Errorf("workload %s: bad migratory geometry", sp.Name)
	}
	if sp.Wide.Frac > 0 && sp.Wide.Bytes == 0 {
		return fmt.Errorf("workload %s: wide sharing without bytes", sp.Name)
	}
	if sp.Zipf.Frac > 0 {
		if sp.Zipf.Bytes < migRecordBytes {
			return fmt.Errorf("workload %s: zipf sharing needs at least one 64-byte block", sp.Name)
		}
		if sp.Zipf.S <= 1 {
			return fmt.Errorf("workload %s: zipf exponent %.3f must be > 1", sp.Name, sp.Zipf.S)
		}
		if sp.Zipf.WriteFrac < 0 || sp.Zipf.WriteFrac > 1 {
			return fmt.Errorf("workload %s: zipf write fraction out of range", sp.Name)
		}
	}
	return nil
}

// MemoryBytes returns the total allocated footprint (the MA column of
// Table 2) for an nCPU machine. Phases share one address space with
// fixed region bases, so a phased scenario's footprint is the union:
// the per-region maximum across phases, not a sum (and not the largest
// single phase — different phases may dominate different regions).
func (sp Spec) MemoryBytes(cpus int) uint64 {
	if len(sp.Phases) > 0 {
		var u regionBytes
		for _, ph := range sp.Phases {
			u.union(ph.Spec.regions())
		}
		return u.total(cpus)
	}
	return sp.regions().total(cpus)
}

// regionBytes is a spec's footprint split by region (only regions with
// references count).
type regionBytes struct {
	hot, warm, stream, pair uint64 // per CPU
	mig, wide, zipf         uint64 // shared
}

func (sp Spec) regions() regionBytes {
	r := regionBytes{hot: sp.Hot.Bytes, warm: sp.Warm.Bytes, stream: sp.Stream.Bytes}
	if sp.Pair.Frac > 0 {
		r.pair = sp.Pair.Bytes
	}
	if sp.Mig.Frac > 0 {
		r.mig = uint64(sp.Mig.Records) * migRecordBytes
	}
	if sp.Wide.Frac > 0 {
		r.wide = sp.Wide.Bytes
	}
	if sp.Zipf.Frac > 0 {
		r.zipf = sp.Zipf.Bytes
	}
	return r
}

func (r *regionBytes) union(o regionBytes) {
	r.hot = max(r.hot, o.hot)
	r.warm = max(r.warm, o.warm)
	r.stream = max(r.stream, o.stream)
	r.pair = max(r.pair, o.pair)
	r.mig = max(r.mig, o.mig)
	r.wide = max(r.wide, o.wide)
	r.zipf = max(r.zipf, o.zipf)
}

func (r regionBytes) total(cpus int) uint64 {
	return uint64(cpus)*(r.hot+r.warm+r.stream+r.pair) + r.wide + r.mig + r.zipf
}

// migRecordBytes is the size of one migratory record (one L2 block).
const migRecordBytes = 64

// regionGap pads region bases apart so tiers never overlap.
const regionGap = 1 << 26 // 64 MB

// Source builds the deterministic reference generator for an nCPU run.
// Each CPU's stream is infinite: a run bounds it at Spec.Accesses
// references, and trace.Record at the count it is given. A phased spec
// returns the phase-splicing source (see phased.go).
func (sp Spec) Source(cpus int) trace.Source {
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	if len(sp.Phases) > 0 {
		return sp.phasedSource(cpus)
	}
	return sp.newGenerator(cpus, newPageTable())
}

// newGenerator builds one mixture generator over the given (possibly
// shared) page table. The caller has validated the spec.
func (sp Spec) newGenerator(cpus int, pt *pageTable) *generator {
	g := &generator{spec: sp, cpus: cpus}
	g.rng = make([]*rand.Rand, cpus)
	g.stream = make([]uint64, cpus)
	g.prod = make([]uint64, cpus)
	g.burst = make([][3]burstState, cpus)
	g.served = make([]uint64, cpus)
	g.pt = pt
	for i := 0; i < cpus; i++ {
		g.rng[i] = rand.New(rand.NewSource(sp.Seed + int64(i)*7919))
	}
	// Region layout: per-CPU tiers, per-CPU pair buffers, then the shared
	// regions, spaced far apart. Each region is additionally offset by a
	// distinct page-colored skew so regions do not all collide in the same
	// L1/L2 sets (a real allocator spreads them too).
	idx := 0
	nextBase := func() uint64 {
		base := uint64(idx+1)*regionGap + uint64(idx*4813)*64
		idx++
		return base
	}
	g.hotBase = make([]uint64, cpus)
	g.warmBase = make([]uint64, cpus)
	g.streamBase = make([]uint64, cpus)
	g.pairBase = make([]uint64, cpus)
	for i := 0; i < cpus; i++ {
		g.hotBase[i] = nextBase()
		g.warmBase[i] = nextBase()
		g.streamBase[i] = nextBase()
		g.pairBase[i] = nextBase()
	}
	g.migBase = nextBase()
	g.wideBase = nextBase()
	g.zipfBase = nextBase()
	if sp.Zipf.Frac > 0 {
		g.zipf = make([]*rand.Zipf, cpus)
		blocks := sp.Zipf.Bytes / migRecordBytes
		for i := 0; i < cpus; i++ {
			g.zipf[i] = rand.NewZipf(g.rng[i], sp.Zipf.S, 1, blocks-1)
		}
	}
	return g
}

// generator implements trace.Source.
type generator struct {
	spec Spec
	cpus int
	rng  []*rand.Rand

	hotBase, warmBase, streamBase, pairBase []uint64
	migBase, wideBase, zipfBase             uint64
	zipf                                    []*rand.Zipf // per-CPU zipf draws, nil unless Zipf.Frac > 0

	stream []uint64 // per-data-set stream walk offset
	prod   []uint64 // per-CPU pair-producer offset
	migN   uint64   // global migratory progress counter
	served []uint64 // per-CPU reference count (drives process migration)

	burst [][3]burstState // per-CPU burst state for hot/warm/stream tiers

	// pt is the first-touch page table; phase generators of one phased
	// scenario share a single table so all phases live in one physical
	// address space (see pageTable).
	pt *pageTable
}

// pageBits is the simulated page size (4 KB).
const pageBits = 12

// pageColors is the number of page colors preserved by the allocator:
// one per page-sized slot of the 64 KB direct-mapped L1.
const pageColors = 16

// pageTable is the first-touch page table: virtual 4 KB pages are
// assigned physical frames in touch order, as an OS allocator would.
// This compacts and interleaves all CPUs' data in physical space — the
// address distribution the snooped bus actually sees (WWT2 traces are
// physical). Without it, the widely-spaced virtual regions would hand
// the include-JETTY artificially separable high address bits.
//
// Allocation is page-colored (frame color == virtual color), as
// SPARC-era operating systems did, so the direct-mapped L1's conflict
// behaviour matches the virtual layout instead of suffering random
// page-slot collisions.
//
// One table serves one run: the phase generators of a phased scenario
// share it, so a virtual page touched during warmup keeps its frame in
// the steady phase — later phases genuinely rewalk warm data instead of
// aliasing fresh frames over it.
type pageTable struct {
	table    map[uint64]uint64
	perColor [pageColors]uint64
	// tlb is a direct-mapped software TLB in front of table: entry
	// page%tlbEntries holds page+1 (0 = empty) and its frame. The table
	// only grows and never remaps a page, so a memoized translation
	// never goes stale.
	tlb [tlbEntries]struct{ tag, frame uint64 }
}

// tlbEntries is the software TLB's size: room to spare for the hot and
// warm tiers of any library spec on a 4-CPU machine (at most 400 pages).
const tlbEntries = 1024

func newPageTable() *pageTable {
	return &pageTable{table: make(map[uint64]uint64)}
}

// translate maps a virtual address to its physical address, assigning a
// color-preserving frame on first touch.
func (pt *pageTable) translate(va uint64) uint64 {
	page := va >> pageBits
	e := &pt.tlb[page%tlbEntries]
	if e.tag != page+1 {
		frame, ok := pt.table[page]
		if !ok {
			color := page % pageColors
			frame = pt.perColor[color]*pageColors + color
			pt.perColor[color]++
			pt.table[page] = frame
		}
		e.tag, e.frame = page+1, frame
	}
	return e.frame<<pageBits | va&((1<<pageBits)-1)
}

// burstState tracks record-reuse bursts within one random tier.
type burstState struct {
	addr uint64
	left int
}

// CPUs implements trace.Source.
func (g *generator) CPUs() int { return g.cpus }

// Next implements trace.Source. Streams are infinite (ok is always true);
// run length is bounded by the caller. References are generated in the
// virtual region layout and issued as first-touch physical addresses.
func (g *generator) Next(cpu int) (trace.Ref, bool) {
	ref, ok := g.next(cpu)
	ref.Addr = g.pt.translate(ref.Addr)
	return ref, ok
}

func (g *generator) next(cpu int) (trace.Ref, bool) {
	sp := &g.spec
	r := g.rng[cpu]
	x := r.Float64()

	// Process migration: after each period the process running on this
	// CPU works on the data set a neighbouring CPU populated. The walk
	// and burst state follow the data, not the processor.
	ds := cpu
	if sp.MigrationPeriod > 0 {
		g.served[cpu]++
		ds = (cpu + int(g.served[cpu]/sp.MigrationPeriod)) % g.cpus
	}

	switch {
	case x < sp.Hot.Frac:
		return g.privateRef(cpu, sp.Hot, g.hotBase[ds], nil, &g.burst[ds][0]), true

	case x < sp.Hot.Frac+sp.Warm.Frac:
		return g.privateRef(cpu, sp.Warm, g.warmBase[ds], nil, &g.burst[ds][1]), true

	case x < sp.Hot.Frac+sp.Warm.Frac+sp.Stream.Frac:
		return g.privateRef(cpu, sp.Stream, g.streamBase[ds], &g.stream[ds], &g.burst[ds][2]), true

	case x < sp.Hot.Frac+sp.Warm.Frac+sp.Stream.Frac+sp.Pair.Frac:
		return g.pairRef(cpu), true

	case x < sp.Hot.Frac+sp.Warm.Frac+sp.Stream.Frac+sp.Pair.Frac+sp.Mig.Frac:
		return g.migRef(cpu), true

	case x < sp.Hot.Frac+sp.Warm.Frac+sp.Stream.Frac+sp.Pair.Frac+sp.Mig.Frac+sp.Zipf.Frac:
		return g.zipfRef(cpu), true

	default:
		// Wide is the last arm so it also absorbs float rounding slop in
		// the fraction cascade, exactly as it always has — keeping every
		// pre-Zipf spec's stream bit-identical.
		return g.wideRef(cpu), true
	}
}

// privateRef generates a reference into a per-CPU tier. Sequential tiers
// use the walk pointer; random tiers draw uniformly, optionally reusing
// the drawn line for Burst consecutive references (record locality).
func (g *generator) privateRef(cpu int, reg Region, regionBase uint64, walk *uint64, b *burstState) trace.Ref {
	r := g.rng[cpu]
	var off uint64
	switch {
	case reg.Stride > 0 && walk != nil:
		*walk += uint64(reg.Stride)
		if *walk >= reg.Bytes {
			*walk = 0
		}
		off = *walk
	case b != nil && reg.Burst > 1:
		if b.left <= 0 {
			b.addr = alignDown(uint64(r.Int63n(int64(reg.Bytes))), 32)
			b.left = reg.Burst
		}
		b.left--
		off = b.addr + uint64(r.Intn(4))*8 // words within the drawn line
	default:
		off = alignDown(uint64(r.Int63n(int64(reg.Bytes))), 8)
	}
	op := trace.Read
	if r.Float64() < g.spec.WriteFrac {
		op = trace.Write
	}
	return trace.Ref{Op: op, Addr: regionBase + off}
}

// pairRef implements producer/consumer sharing: cpu produces into its own
// buffer and consumes from its predecessor's, a fixed lag behind that
// producer's write front.
func (g *generator) pairRef(cpu int) trace.Ref {
	sp := &g.spec
	r := g.rng[cpu]
	stride := uint64(sp.Pair.Stride)
	if stride == 0 {
		stride = 8
	}
	if r.Intn(2) == 0 {
		// Produce.
		g.prod[cpu] += stride
		if g.prod[cpu] >= sp.Pair.Bytes {
			g.prod[cpu] = 0
		}
		return trace.Ref{Op: trace.Write, Addr: g.pairBase[cpu] + g.prod[cpu]}
	}
	// Consume from the predecessor's buffer, LagBytes behind its front.
	prev := (cpu + g.cpus - 1) % g.cpus
	front := g.prod[prev]
	off := (front + sp.Pair.Bytes - sp.Pair.LagBytes) % sp.Pair.Bytes
	// Jitter within a cache line to look like record reads.
	off = alignDown(off, 8) + uint64(r.Intn(4))*8%32
	if off >= sp.Pair.Bytes {
		off = 0
	}
	return trace.Ref{Op: trace.Read, Addr: g.pairBase[prev] + off}
}

// migRef implements migratory records: the active record advances every
// Hold references; each toucher reads and writes it (read-modify-write
// critical sections), so ownership hops between CPUs.
func (g *generator) migRef(cpu int) trace.Ref {
	sp := &g.spec
	r := g.rng[cpu]
	g.migN++
	rec := (g.migN / uint64(sp.Mig.Hold)) % uint64(sp.Mig.Records)
	addr := g.migBase + rec*migRecordBytes + uint64(r.Intn(4))*8
	op := trace.Read
	if r.Intn(2) == 0 {
		op = trace.Write
	}
	return trace.Ref{Op: op, Addr: addr}
}

// wideRef implements widely-shared data: mostly reads (copies spread to
// every CPU), rare writes (every copy invalidated).
func (g *generator) wideRef(cpu int) trace.Ref {
	sp := &g.spec
	r := g.rng[cpu]
	if sp.Wide.Bytes == 0 {
		// Rounding slop reached the default arm of a spec without wide
		// sharing: fold it into the hot tier.
		return g.privateRef(cpu, sp.Hot, g.hotBase[cpu], nil, &g.burst[cpu][0])
	}
	off := alignDown(uint64(r.Int63n(int64(sp.Wide.Bytes))), 8)
	op := trace.Read
	if r.Float64() < sp.Wide.WriteFrac {
		op = trace.Write
	}
	return trace.Ref{Op: op, Addr: g.wideBase + off}
}

// zipfRef implements zipf-popular shared data: block popularity follows
// a zipf law, so every CPU hammers the same few hot blocks (coherence
// contention) while the tail provides cold sharing misses.
func (g *generator) zipfRef(cpu int) trace.Ref {
	r := g.rng[cpu]
	block := g.zipf[cpu].Uint64()
	off := block*migRecordBytes + uint64(r.Intn(8))*8
	op := trace.Read
	if r.Float64() < g.spec.Zipf.WriteFrac {
		op = trace.Write
	}
	return trace.Ref{Op: op, Addr: g.zipfBase + off}
}

func alignDown(v, a uint64) uint64 {
	if a == 0 {
		return v
	}
	return v - v%a
}
