package workload

import (
	"testing"

	"jetty/internal/trace"
)

func TestAllSpecsValid(t *testing.T) {
	specs := Specs()
	if len(specs) != 10 {
		t.Fatalf("want the paper's 10 applications, got %d", len(specs))
	}
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
	}
	if err := Throughput().Validate(); err != nil {
		t.Errorf("Throughput: %v", err)
	}
}

func TestByName(t *testing.T) {
	for _, key := range []string{"Barnes", "ba", "Unstructured", "un"} {
		if _, err := ByName(key); err != nil {
			t.Errorf("ByName(%q): %v", key, err)
		}
	}
	if _, err := ByName("quake"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	if len(names) != 10 || names[0] != "Barnes" || names[9] != "Unstructured" {
		t.Errorf("Names() = %v", names)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	base := Specs()[0]

	sp := base
	sp.Hot.Frac = 0.5 // fractions no longer sum to 1
	if err := sp.Validate(); err == nil {
		t.Error("bad fraction sum accepted")
	}

	sp = base
	sp.Accesses = 0
	if err := sp.Validate(); err == nil {
		t.Error("zero accesses accepted")
	}

	sp = base
	sp.Pair.LagBytes = sp.Pair.Bytes + 1
	if err := sp.Validate(); err == nil {
		t.Error("lag beyond buffer accepted")
	}

	sp = base
	sp.WriteFrac = 1.5
	if err := sp.Validate(); err == nil {
		t.Error("write fraction over 1 accepted")
	}
}

func TestDeterminism(t *testing.T) {
	sp, _ := ByName("Barnes")
	a := sp.Source(4)
	b := sp.Source(4)
	for i := 0; i < 20000; i++ {
		cpu := i % 4
		ra, _ := a.Next(cpu)
		rb, _ := b.Next(cpu)
		if ra != rb {
			t.Fatalf("ref %d diverged: %v vs %v", i, ra, rb)
		}
	}
}

func TestSeedsChangeStreams(t *testing.T) {
	sp, _ := ByName("Barnes")
	sp2 := sp
	sp2.Seed++
	a, b := sp.Source(4), sp2.Source(4)
	same := 0
	for i := 0; i < 1000; i++ {
		ra, _ := a.Next(0)
		rb, _ := b.Next(0)
		if ra == rb {
			same++
		}
	}
	if same > 100 {
		t.Errorf("different seeds produced %d/1000 identical refs", same)
	}
}

func TestFootprintBounds(t *testing.T) {
	// Every generated address must fall inside the declared regions.
	for _, sp := range Specs() {
		src := sp.Source(4)
		ma := sp.MemoryBytes(4)
		_ = ma
		for i := 0; i < 40000; i++ {
			cpu := i % 4
			r, ok := src.Next(cpu)
			if !ok {
				t.Fatalf("%s: stream ended", sp.Name)
			}
			if r.Addr >= 1<<36 {
				t.Fatalf("%s: address %#x beyond physical space", sp.Name, r.Addr)
			}
		}
	}
}

func TestWriteFractionRoughlyHonored(t *testing.T) {
	sp := Throughput() // no sharing: writes only from WriteFrac
	src := sp.Source(4)
	writes, total := 0, 200000
	for i := 0; i < total; i++ {
		r, _ := src.Next(i % 4)
		if r.Op == trace.Write {
			writes++
		}
	}
	got := float64(writes) / float64(total)
	if got < sp.WriteFrac-0.05 || got > sp.WriteFrac+0.05 {
		t.Errorf("write fraction = %.3f, want ~%.2f", got, sp.WriteFrac)
	}
}

func TestPrivateRegionsDisjointAcrossCPUs(t *testing.T) {
	// The throughput workload must generate fully disjoint footprints.
	// Physical spans interleave (first-touch paging), so disjointness is
	// checked at page granularity: no physical page is touched by two
	// CPUs.
	sp := Throughput()
	src := sp.Source(4)
	owner := map[uint64]int{}
	for i := 0; i < 100000; i++ {
		cpu := i % 4
		r, _ := src.Next(cpu)
		page := r.Addr >> pageBits
		if prev, ok := owner[page]; ok && prev != cpu {
			t.Fatalf("physical page %#x touched by cpu%d and cpu%d", page, prev, cpu)
		}
		owner[page] = cpu
	}
	if len(owner) < 100 {
		t.Fatalf("suspiciously small footprint: %d pages", len(owner))
	}
}

func TestPagingIsCompactAndDeterministic(t *testing.T) {
	// First-touch allocation hands out frames sequentially: the physical
	// footprint equals the touched page count, and two runs agree.
	sp := Throughput()
	a, b := sp.Source(4).(*generator), sp.Source(4).(*generator)
	var maxA uint64
	for i := 0; i < 50000; i++ {
		cpu := i % 4
		ra, _ := a.Next(cpu)
		rb, _ := b.Next(cpu)
		if ra != rb {
			t.Fatalf("paging broke determinism at ref %d", i)
		}
		if ra.Addr > maxA {
			maxA = ra.Addr
		}
	}
	touched := uint64(len(a.pt.table))
	var handed uint64
	for _, n := range a.pt.perColor {
		handed += n
	}
	if handed != touched {
		t.Errorf("frames handed out %d != pages touched %d", handed, touched)
	}
	// Color-preserving compactness: the footprint spans at most
	// pageColors times the per-color maximum.
	var maxColor uint64
	for _, n := range a.pt.perColor {
		if n > maxColor {
			maxColor = n
		}
	}
	if maxA>>pageBits >= maxColor*pageColors {
		t.Errorf("physical address %#x beyond the colored footprint", maxA)
	}
	// Frames preserve the virtual color (L1 page-slot behaviour).
	for page, frame := range a.pt.table {
		if page%pageColors != frame%pageColors {
			t.Fatalf("page %#x color %d mapped to frame %#x color %d",
				page, page%pageColors, frame, frame%pageColors)
		}
	}
}

// TestTLBMatchesPageTable pins the software TLB's exactness: every
// translation through it equals the first-touch table's own answer,
// including pages that evict each other from one TLB slot.
func TestTLBMatchesPageTable(t *testing.T) {
	pt := newPageTable()
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 200_000; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		// 4096 pages over 4 TLB-slot aliases each: hits, conflict
		// misses and first touches all occur.
		page := state % (4 * tlbEntries)
		va := regionGap + page<<pageBits | state>>52
		pa := pt.translate(va)
		frame, ok := pt.table[va>>pageBits]
		if !ok || pa != frame<<pageBits|va&(1<<pageBits-1) {
			t.Fatalf("ref %d: translate(%#x) = %#x, table frame %#x (present %v)", i, va, pa, frame, ok)
		}
	}
}

// BenchmarkSourceNext measures stream production: the Lu mixture over
// 4 CPUs through the round-robin interleaver, the way a stream-memo miss
// generates it, 1024 references per op (reported as ns/ref).
func BenchmarkSourceNext(b *testing.B) {
	sp, err := ByName("Lu")
	if err != nil {
		b.Fatal(err)
	}
	rr := trace.NewRoundRobin(sp.Source(4))
	recs := make([]trace.Rec, 1<<10)
	var sink uint64
	for b.Loop() {
		rr.Fill(recs)
		sink += recs[len(recs)-1].Addr
	}
	benchSink = sink
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/ref")
}

var benchSink uint64

func TestPairSharingProducesCrossCPUTraffic(t *testing.T) {
	sp, _ := ByName("Unstructured")
	src := sp.Source(4)
	// Count consumer reads landing in a *different* CPU's pair buffer,
	// using the pre-translation (virtual) stream.
	g := src.(*generator)
	cross := 0
	for i := 0; i < 100000; i++ {
		cpu := i % 4
		r, _ := g.next(cpu)
		for other := 0; other < 4; other++ {
			if other == cpu {
				continue
			}
			base := g.pairBase[other]
			if r.Addr >= base && r.Addr < base+sp.Pair.Bytes {
				cross++
			}
		}
	}
	if cross == 0 {
		t.Error("no cross-CPU pair traffic generated")
	}
}

func TestMemoryBytesAccounting(t *testing.T) {
	sp := Spec{
		Name: "t", Accesses: 1, WriteFrac: 0,
		Hot:  Region{Frac: 0.5, Bytes: 1000},
		Warm: Region{Frac: 0.3, Bytes: 2000},
		Pair: PairSharing{Frac: 0.1, Bytes: 500, LagBytes: 100},
		Mig:  MigratorySharing{Frac: 0.05, Records: 10, Hold: 4},
		Wide: WideSharing{Frac: 0.05, Bytes: 300},
	}
	want := uint64(4*(1000+2000+500) + 300 + 10*64)
	if got := sp.MemoryBytes(4); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestScale(t *testing.T) {
	sp := Throughput()
	if got := sp.Scale(2).Accesses; got != 2*sp.Accesses {
		t.Errorf("Scale(2) accesses = %d", got)
	}
	if got := sp.Scale(0).Accesses; got != sp.Accesses {
		t.Errorf("Scale(0) should be identity, got %d", got)
	}
	if got := sp.Scale(1e-12).Accesses; got == 0 {
		t.Error("scaled accesses must stay positive")
	}
}

func TestSourcePanicsOnInvalidSpec(t *testing.T) {
	sp := Specs()[0]
	sp.Hot.Frac = 99
	defer func() {
		if recover() == nil {
			t.Error("Source on invalid spec should panic")
		}
	}()
	sp.Source(4)
}

func TestMigrationRotatesDataSets(t *testing.T) {
	// With migration enabled, a CPU must eventually reference addresses
	// from another CPU's virtual data set; without it, never.
	period := uint64(5000)
	mig := MigratingThroughput(period)
	g := mig.Source(4).(*generator)
	crossed := false
	for i := 0; i < int(period)*8; i++ {
		cpu := i % 4
		r, _ := g.next(cpu)
		for other := 0; other < 4; other++ {
			if other == cpu && crossedInto(g, other, r.Addr) {
				continue
			}
			if other != cpu && crossedInto(g, other, r.Addr) {
				crossed = true
			}
		}
	}
	if !crossed {
		t.Error("migration never touched a foreign data set")
	}

	plain := Throughput()
	gp := plain.Source(4).(*generator)
	for i := 0; i < 40000; i++ {
		cpu := i % 4
		r, _ := gp.next(cpu)
		for other := 0; other < 4; other++ {
			if other != cpu && crossedInto(gp, other, r.Addr) {
				t.Fatalf("non-migrating workload crossed data sets (cpu%d hit cpu%d's region)", cpu, other)
			}
		}
	}
}

// crossedInto reports whether a virtual address belongs to cpu's private
// tiers.
func crossedInto(g *generator, cpu int, va uint64) bool {
	sp := g.spec
	in := func(base, size uint64) bool { return va >= base && va < base+size }
	return in(g.hotBase[cpu], sp.Hot.Bytes) ||
		in(g.warmBase[cpu], sp.Warm.Bytes) ||
		in(g.streamBase[cpu], sp.Stream.Bytes)
}

func TestMigratingThroughputValid(t *testing.T) {
	sp := MigratingThroughput(10000)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.MigrationPeriod != 10000 {
		t.Error("period not carried")
	}
}

func TestScenariosValid(t *testing.T) {
	scenarios := Scenarios()
	if len(scenarios) < 6 {
		t.Fatalf("want at least 6 scenarios, got %d", len(scenarios))
	}
	for _, sp := range scenarios {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
	}
}

func TestLibraryLookup(t *testing.T) {
	lib := Library()
	if len(lib) != 10+len(Scenarios()) {
		t.Fatalf("Library() has %d entries", len(lib))
	}
	seen := map[string]bool{}
	for _, sp := range lib {
		if seen[sp.Name] || seen[sp.Abbrev] {
			t.Errorf("duplicate library name/abbrev in %q/%q", sp.Name, sp.Abbrev)
		}
		seen[sp.Name], seen[sp.Abbrev] = true, true
	}
	for _, key := range []string{"Barnes", "ba", "Throughput", "tp", "webserver", "db", "Pipeline", "mg"} {
		if _, err := Lookup(key); err != nil {
			t.Errorf("Lookup(%q): %v", key, err)
		}
	}
	if _, err := Lookup("quake"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestZipfSharingIsSkewedSharedAndDeterministic(t *testing.T) {
	sp := WebServer()
	const cpus, n = 4, 40000

	count := func() (map[uint64][]int, [][]trace.Ref) {
		src := sp.Source(cpus)
		perBlock := map[uint64][]int{} // physical 64B block -> touching CPUs
		streams := make([][]trace.Ref, cpus)
		for i := 0; i < n/cpus; i++ {
			for cpu := 0; cpu < cpus; cpu++ {
				r, _ := src.Next(cpu)
				streams[cpu] = append(streams[cpu], r)
				perBlock[r.Addr>>6] = append(perBlock[r.Addr>>6], cpu)
			}
		}
		return perBlock, streams
	}
	perBlock, s1 := count()
	_, s2 := count()

	// Determinism: two sources from the same spec emit identical streams.
	for cpu := range s1 {
		for i := range s1[cpu] {
			if s1[cpu][i] != s2[cpu][i] {
				t.Fatalf("cpu%d ref %d differs between identical sources", cpu, i)
			}
		}
	}

	// Sharing: some block must be touched by every CPU (the zipf-hot
	// blocks are contended by all).
	shared := 0
	var hottest int
	for _, touchers := range perBlock {
		cpuSet := map[int]bool{}
		for _, c := range touchers {
			cpuSet[c] = true
		}
		if len(cpuSet) == cpus {
			shared++
		}
		if len(touchers) > hottest {
			hottest = len(touchers)
		}
	}
	if shared == 0 {
		t.Error("no block touched by all CPUs: zipf region not shared")
	}
	// Skew: the hottest block must absorb far more than a uniform share.
	if uniform := n / len(perBlock); hottest < 8*uniform {
		t.Errorf("hottest block has %d touches, uniform share is %d: not zipfian", hottest, uniform)
	}
}

func TestZipfValidateErrors(t *testing.T) {
	sp := WebServer()
	sp.Zipf.S = 1.0
	if err := sp.Validate(); err == nil {
		t.Error("zipf exponent <= 1 accepted")
	}
	sp = WebServer()
	sp.Zipf.Bytes = 0
	if err := sp.Validate(); err == nil {
		t.Error("zipf without bytes accepted")
	}
}
