package smp

import (
	"math/rand"
	"testing"

	"jetty/internal/addr"
	"jetty/internal/bus"
	"jetty/internal/cache"
	"jetty/internal/jetty"
	"jetty/internal/trace"
)

// tiny returns a small 4-way machine with no write buffering, so every
// store acts immediately — most protocol tests want this determinism.
func tiny() *System {
	cfg := PaperConfig(4)
	cfg.L1 = cache.L1Config{SizeBytes: 1 << 10, LineBytes: 32}
	cfg.L2 = cache.L2Config{SizeBytes: 1 << 13, Assoc: 2, Geom: addr.Subblocked}
	cfg.WBEntries = 0
	return New(cfg)
}

func read(s *System, cpu int, a uint64)  { s.Step(cpu, trace.Ref{Op: trace.Read, Addr: a}) }
func write(s *System, cpu int, a uint64) { s.Step(cpu, trace.Ref{Op: trace.Write, Addr: a}) }

func unitState(s *System, cpu int, a uint64) cache.State {
	return s.nodes[cpu].l2.UnitState(s.geom.Unit(a))
}

func TestPaperConfigValid(t *testing.T) {
	for _, cpus := range []int{1, 4, 8} {
		if err := PaperConfig(cpus).Validate(); err != nil {
			t.Errorf("PaperConfig(%d): %v", cpus, err)
		}
		nsb := PaperConfig(cpus)
		nsb.L2.Geom = addr.NonSubblocked
		if err := nsb.Validate(); err != nil {
			t.Errorf("non-subblocked PaperConfig(%d): %v", cpus, err)
		}
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config should be invalid")
	}
	bad := PaperConfig(4)
	bad.L1.LineBytes = 128 // exceeds coherence unit
	if err := bad.Validate(); err == nil {
		t.Error("L1 lines above unit size must be rejected")
	}
}

func TestColdReadFillsExclusive(t *testing.T) {
	s := tiny()
	read(s, 0, 0x1000)
	if got := unitState(s, 0, 0x1000); got != cache.Exclusive {
		t.Errorf("cold read fills %v, want E", got)
	}
	if s.bus.Count[bus.Read] != 1 {
		t.Errorf("BusRd count = %d", s.bus.Count[bus.Read])
	}
	// All three remote caches snooped and missed.
	c := s.EnergyCounts()
	if c.Snoops != 3 || c.SnoopMisses != 3 {
		t.Errorf("snoops=%d misses=%d, want 3/3", c.Snoops, c.SnoopMisses)
	}
	if s.bus.RemoteHits[0] != 1 {
		t.Errorf("remote-hit histogram %v, want one 0-hit entry", s.bus.RemoteHits)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestProducerConsumerSharing(t *testing.T) {
	s := tiny()
	a := uint64(0x2000)
	write(s, 1, a) // producer: BusRdX, fills M
	if got := unitState(s, 1, a); got != cache.Modified {
		t.Fatalf("producer state %v, want M", got)
	}
	read(s, 2, a) // consumer: BusRd; producer supplies and downgrades to O
	if got := unitState(s, 1, a); got != cache.Owned {
		t.Errorf("producer after consumer read: %v, want O", got)
	}
	if got := unitState(s, 2, a); got != cache.Shared {
		t.Errorf("consumer state %v, want S", got)
	}
	c := s.EnergyCounts()
	if c.SnoopSupplies != 1 {
		t.Errorf("SnoopSupplies = %d, want 1 (producer supplied)", c.SnoopSupplies)
	}
	// The BusRd found one remote copy.
	if s.bus.RemoteHits[1] != 1 {
		t.Errorf("remote-hit histogram %v", s.bus.RemoteHits)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	s := tiny()
	a := uint64(0x3000)
	read(s, 0, a) // E at cpu0
	read(s, 1, a) // S at 0 and 1
	read(s, 2, a) // S everywhere
	write(s, 3, a)
	if got := unitState(s, 3, a); got != cache.Modified {
		t.Fatalf("writer state %v, want M", got)
	}
	for cpu := 0; cpu < 3; cpu++ {
		if got := unitState(s, cpu, a); got != cache.Invalid {
			t.Errorf("cpu%d not invalidated: %v", cpu, got)
		}
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeOnSharedWriteHit(t *testing.T) {
	s := tiny()
	a := uint64(0x4000)
	read(s, 0, a)
	read(s, 1, a) // both S
	write(s, 0, a)
	if got := unitState(s, 0, a); got != cache.Modified {
		t.Fatalf("writer state %v, want M", got)
	}
	if got := unitState(s, 1, a); got != cache.Invalid {
		t.Errorf("sharer not invalidated: %v", got)
	}
	// The write hit in L2 (S) and used an upgrade, not a BusRdX.
	if s.bus.Count[bus.Upgrade] != 1 {
		t.Errorf("BusUpgr count = %d, want 1", s.bus.Count[bus.Upgrade])
	}
	c := s.EnergyCounts()
	if c.LocalWriteHits < 1 {
		t.Error("upgrade write should count as a local L2 write hit")
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestSilentExclusiveToModified(t *testing.T) {
	s := tiny()
	a := uint64(0x5000)
	read(s, 0, a) // E
	pre := s.bus.SnoopTransactions()
	write(s, 0, a) // E->M must be silent
	if got := s.bus.SnoopTransactions(); got != pre {
		t.Errorf("E->M caused %d bus transactions", got-pre)
	}
	if got := unitState(s, 0, a); got != cache.Modified {
		t.Errorf("state %v, want M", got)
	}
}

func TestMigratorySharing(t *testing.T) {
	s := tiny()
	a := uint64(0x6000)
	for turn := 0; turn < 8; turn++ {
		cpu := turn % 4
		read(s, cpu, a)
		write(s, cpu, a)
		if got := unitState(s, cpu, a); got != cache.Modified {
			t.Fatalf("turn %d: holder state %v, want M", turn, got)
		}
		if err := s.CheckCoherence(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSubblockStatesIndependent(t *testing.T) {
	s := tiny()
	base := uint64(0x7000) // 64-byte block: subblocks at +0 and +32
	write(s, 0, base)
	read(s, 1, base+32)
	if got := unitState(s, 0, base); got != cache.Modified {
		t.Errorf("subblock 0 state %v, want M", got)
	}
	if got := unitState(s, 1, base+32); got != cache.Exclusive {
		t.Errorf("subblock 1 at cpu1 %v, want E (no copies of that subblock)", got)
	}
	// cpu1's read of the sibling subblock must NOT hit cpu0's M subblock:
	// both transactions found zero remote copies. This is exactly the
	// subblocking-induced snoop-miss locality §4.3.1 describes.
	if s.bus.RemoteHits[0] != 2 {
		t.Errorf("remote-hit histogram %v, want [2 0 0 0]", s.bus.RemoteHits)
	}
}

func TestL1AbsorbsRepeatedAccesses(t *testing.T) {
	s := tiny()
	a := uint64(0x8000)
	read(s, 0, a)
	before := s.EnergyCounts().LocalProbes()
	for i := 0; i < 10; i++ {
		read(s, 0, a)
	}
	if got := s.EnergyCounts().LocalProbes(); got != before {
		t.Errorf("L1 hits caused %d extra L2 probes", got-before)
	}
	c := s.CPUStatsFor(0)
	if c.L1Hits != 10 {
		t.Errorf("L1Hits = %d, want 10", c.L1Hits)
	}
}

func TestL1WritebackOnConflict(t *testing.T) {
	s := tiny() // L1: 1KB direct-mapped, 32 lines
	a := uint64(0x100)
	b := a + 1<<10 // same L1 frame, different L2 set likely
	write(s, 0, a) // dirty line
	write(s, 0, b) // displaces it -> L1 writeback into L2
	c := s.CPUStatsFor(0)
	if c.L1Writebacks != 1 {
		t.Errorf("L1Writebacks = %d, want 1", c.L1Writebacks)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestL2EvictionInvalidatesL1(t *testing.T) {
	// Tiny L2 (2-way) with distinct-set L1 mapping: force an L2 set
	// conflict and verify the L1 loses the covered line too.
	cfg := PaperConfig(1)
	cfg.L1 = cache.L1Config{SizeBytes: 1 << 12, LineBytes: 32}                   // 128 lines
	cfg.L2 = cache.L2Config{SizeBytes: 1 << 12, Assoc: 2, Geom: addr.Subblocked} // 32 sets
	cfg.WBEntries = 0
	s := New(cfg)
	sets := uint64(cfg.L2.Sets())
	blockBytes := uint64(cfg.L2.Geom.BlockBytes)
	a0 := uint64(0)
	a1 := a0 + sets*blockBytes
	a2 := a1 + sets*blockBytes // third block in the same L2 set
	read(s, 0, a0)
	read(s, 0, a1)
	read(s, 0, a2) // evicts a0's block
	if s.nodes[0].l2.UnitState(s.geom.Unit(a0)).Valid() {
		t.Fatal("a0 should have been evicted from L2")
	}
	if s.nodes[0].l1.Contains(s.nodes[0].l1.LineAddr(a0)) {
		t.Fatal("inclusion violated: a0 line survived in L1")
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.L1 = cache.L1Config{SizeBytes: 1 << 12, LineBytes: 32}
	cfg.L2 = cache.L2Config{SizeBytes: 1 << 12, Assoc: 2, Geom: addr.Subblocked}
	cfg.WBEntries = 0
	s := New(cfg)
	sets := uint64(cfg.L2.Sets())
	blockBytes := uint64(cfg.L2.Geom.BlockBytes)
	a0 := uint64(0)
	write(s, 0, a0) // M
	read(s, 0, a0+sets*blockBytes)
	read(s, 0, a0+2*sets*blockBytes) // evict dirty a0
	if s.bus.Count[bus.Writeback] != 1 {
		t.Errorf("BusWB count = %d, want 1", s.bus.Count[bus.Writeback])
	}
	if s.EnergyCounts().DirtyWBUnits != 1 {
		t.Errorf("DirtyWBUnits = %d, want 1", s.EnergyCounts().DirtyWBUnits)
	}
}

func TestWriteBufferCoalescingAndForwarding(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.WBEntries = 8
	s := New(cfg)
	a := uint64(0x900)
	write(s, 0, a)
	write(s, 0, a) // coalesces
	read(s, 0, a)  // forwarded
	c := s.CPUStatsFor(0)
	if c.WBCoalesced != 1 {
		t.Errorf("WBCoalesced = %d, want 1", c.WBCoalesced)
	}
	if c.WBForwards != 1 {
		t.Errorf("WBForwards = %d, want 1", c.WBForwards)
	}
	if c.WBDrains != 0 {
		t.Errorf("WBDrains = %d, want 0 (nothing forced a drain)", c.WBDrains)
	}
	s.DrainWriteBuffers()
	if got := s.CPUStatsFor(0).WBDrains; got != 1 {
		t.Errorf("after DrainWriteBuffers: drains = %d, want 1", got)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBufferOverflowDrainsOldest(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.WBEntries = 2
	s := New(cfg)
	write(s, 0, 0)  // buffered
	write(s, 0, 32) // buffered
	write(s, 0, 64) // overflow: drains the store to 0
	c := s.CPUStatsFor(0)
	if c.WBDrains != 1 {
		t.Fatalf("WBDrains = %d, want 1", c.WBDrains)
	}
	if got := unitState(s, 0, 0); got != cache.Modified {
		t.Errorf("drained store state %v, want M", got)
	}
	if got := unitState(s, 0, 64); got != cache.Invalid {
		t.Errorf("buffered store already visible: %v", got)
	}
}

func TestStatsConsistency(t *testing.T) {
	s := tiny()
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 20000; i++ {
		cpu := r.Intn(4)
		a := uint64(r.Intn(1 << 14))
		if r.Intn(3) == 0 {
			write(s, cpu, a)
		} else {
			read(s, cpu, a)
		}
	}
	s.DrainWriteBuffers()
	c := s.EnergyCounts()
	// Every snooping transaction probes exactly NCPU-1 remote caches.
	if want := s.bus.SnoopTransactions() * 3; c.Snoops != want {
		t.Errorf("Snoops = %d, want %d (3 per transaction)", c.Snoops, want)
	}
	if c.SnoopHits+c.SnoopMisses != c.Snoops {
		t.Error("snoop hit/miss split does not sum")
	}
	if c.LocalReadHits > c.LocalReads || c.LocalWriteHits > c.LocalWrites {
		t.Error("hits exceed probes")
	}
	// Remote-hit histogram covers every snooping transaction.
	var histSum uint64
	for _, v := range s.bus.RemoteHits {
		histSum += v
	}
	if histSum != s.bus.SnoopTransactions() {
		t.Errorf("histogram sum %d != snoop transactions %d", histSum, s.bus.SnoopTransactions())
	}
	// Sum over remote-hit histogram weights equals total snoop hits.
	var weighted uint64
	for h, v := range s.bus.RemoteHits {
		weighted += uint64(h) * v
	}
	if weighted != c.SnoopHits {
		t.Errorf("weighted histogram %d != snoop hits %d", weighted, c.SnoopHits)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedCoherenceInvariants hammers the protocol with random
// traffic, checking full-machine invariants periodically.
func TestRandomizedCoherenceInvariants(t *testing.T) {
	for _, geom := range []addr.Geometry{addr.Subblocked, addr.NonSubblocked} {
		cfg := PaperConfig(4)
		cfg.L1 = cache.L1Config{SizeBytes: 1 << 10, LineBytes: 32}
		cfg.L2 = cache.L2Config{SizeBytes: 1 << 13, Assoc: 2, Geom: geom}
		cfg.WBEntries = 4
		s := New(cfg)
		r := rand.New(rand.NewSource(31))
		for i := 0; i < 60000; i++ {
			cpu := r.Intn(4)
			a := uint64(r.Intn(1 << 13)) // heavy conflict traffic
			if r.Intn(2) == 0 {
				write(s, cpu, a)
			} else {
				read(s, cpu, a)
			}
			if i%5000 == 0 {
				if err := s.CheckCoherence(); err != nil {
					t.Fatalf("geom %v, step %d: %v", geom, i, err)
				}
			}
		}
		s.DrainWriteBuffers()
		if err := s.CheckCoherence(); err != nil {
			t.Fatalf("geom %v, final: %v", geom, err)
		}
	}
}

// TestFilterBankSafetyEndToEnd runs every paper filter configuration
// simultaneously under random traffic and asserts none ever filtered a
// snoop to a cached unit.
func TestFilterBankSafetyEndToEnd(t *testing.T) {
	names := append([]string{}, jetty.Fig4aConfigs...)
	names = append(names, jetty.Fig4bConfigs...)
	names = append(names, jetty.Fig5aConfigs...)
	names = append(names, jetty.Fig5bConfigs...)
	filters, err := jetty.ParseAll(names)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig(4)
	cfg.L1 = cache.L1Config{SizeBytes: 1 << 10, LineBytes: 32}
	cfg.L2 = cache.L2Config{SizeBytes: 1 << 13, Assoc: 2, Geom: addr.Subblocked}
	cfg.Filters = filters
	s := New(cfg)

	r := rand.New(rand.NewSource(55))
	for i := 0; i < 80000; i++ {
		cpu := r.Intn(4)
		// Mix of private and shared regions to exercise all filter paths.
		var a uint64
		if r.Intn(3) == 0 {
			a = uint64(r.Intn(1 << 11)) // shared, hot
		} else {
			a = uint64(1<<14+cpu<<12) + uint64(r.Intn(1<<12)) // private
		}
		if r.Intn(3) == 0 {
			write(s, cpu, a)
		} else {
			read(s, cpu, a)
		}
	}
	s.DrainWriteBuffers()
	if err := s.CheckFilterSafety(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	// Every filter must have probed every snoop.
	c := s.EnergyCounts()
	for i := range filters {
		fc := s.FilterCounts(i)
		if fc.Probes != c.Snoops {
			t.Errorf("%s: probes %d != snoops %d", filters[i].Name(), fc.Probes, c.Snoops)
		}
		if fc.Filtered > c.SnoopMisses {
			t.Errorf("%s: filtered %d exceeds snoop misses %d", filters[i].Name(), fc.Filtered, c.SnoopMisses)
		}
	}
	// With hot shared traffic the hybrids must achieve nonzero coverage.
	for i, n := range s.FilterNames() {
		if n == "HJ(IJ-10x4x7,EJ-32x4)" && s.Coverage(i) <= 0 {
			t.Error("best hybrid achieved zero coverage on mixed traffic")
		}
	}
}

func TestCPUStatsAdd(t *testing.T) {
	a := CPUStats{Loads: 1, Stores: 2, WBForwards: 3, WBCoalesced: 4, WBDrains: 5,
		L1Probes: 6, L1Hits: 7, L1Misses: 8, L1Writebacks: 9, L1SnoopProbes: 10}
	b := a
	a.Add(b)
	if a.Loads != 2 || a.L1SnoopProbes != 20 || a.L1Writebacks != 18 {
		t.Errorf("Add mismatch: %+v", a)
	}
}
