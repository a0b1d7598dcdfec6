package smp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"jetty/internal/addr"
	"jetty/internal/cache"
	"jetty/internal/jetty"
)

// peekSweep is the reference filter-state audit: every filter of every
// CPU peeked at every valid unit of that CPU's L2. CheckFilterSafety
// must reach the same verdict from the cheaper side of each filter.
func peekSweep(s *System) error {
	for i := range s.nodes {
		n := &s.nodes[i]
		var err error
		n.l2.ForEachValidUnit(func(unit uint64, _ cache.State) {
			if err != nil {
				return
			}
			block := s.geom.BlockOfUnit(unit)
			for k, f := range s.pipes[n.id].bank.filters {
				if f.Peek(unit, block) {
					err = fmt.Errorf("cpu%d filter %s claims resident unit %#x absent",
						n.id, s.cfg.Filters[k].Name(), unit)
					return
				}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// opaque hides a filter's concrete type, so the bank drives and audits
// it as a generic Filter.
type opaque struct{ jetty.Filter }

// auditFilters is the bank of the audit tests: one filter of every kind
// the audit treats differently. The last slot is bank-wrapped in opaque.
var auditFilters = []string{"EJ-32x4", "VEJ-32x4-8", "IJ-10x4x7", "HJ(IJ-10x4x7,EJ-32x4)", "EJ-16x2"}

// auditMachine builds a 4-CPU machine with small caches, so evictions
// are frequent, carrying the auditFilters bank.
func auditMachine() *System {
	cfg := PaperConfig(4)
	cfg.L1 = cache.L1Config{SizeBytes: 1 << 10, LineBytes: 32}
	cfg.L2 = cache.L2Config{SizeBytes: 1 << 13, Assoc: 2, Geom: addr.Subblocked}
	cfg.WBEntries = 4
	for _, name := range auditFilters {
		cfg.Filters = append(cfg.Filters, jetty.MustParse(name))
	}
	s := New(cfg)
	last := len(auditFilters) - 1
	for i := range s.pipes {
		var b nodeBank
		for k, f := range s.pipes[i].bank.filters {
			if k == last {
				f = opaque{f}
			}
			b.add(f)
		}
		s.pipes[i].bank = b
	}
	return s
}

// plants are the violations the audit tests inject: each corrupts one
// filter so that it claims a resident unit (or its block) absent.
var plants = []struct {
	name   string
	filter int // index into auditFilters
	plant  func(f jetty.Filter, unit, block uint64)
}{
	{"EJ block claim", 0, func(f jetty.Filter, u, b uint64) { f.SnoopMiss(u, b, true) }},
	{"VEJ unit claim", 1, func(f jetty.Filter, u, b uint64) { f.SnoopMiss(u, b, false) }},
	{"IJ unpaired eviction", 2, func(f jetty.Filter, _, b uint64) { f.BlockEvicted(b) }},
	{"HJ include half", 3, func(f jetty.Filter, _, b uint64) { f.(*jetty.Hybrid).Include().BlockEvicted(b) }},
	{"HJ exclude half", 3, func(f jetty.Filter, u, b uint64) { f.(*jetty.Hybrid).Exclude().SnoopMiss(u, b, true) }},
	{"generic filter claim", 4, func(f jetty.Filter, u, b uint64) { f.SnoopMiss(u, b, true) }},
}

// TestFilterSafetyAuditMatchesPeekSweep: after random traffic, and again
// after one planted violation of each kind, CheckFilterSafety and the
// per-unit peek sweep agree on whether the machine is safe, and the
// audit's error names the corrupted filter.
func TestFilterSafetyAuditMatchesPeekSweep(t *testing.T) {
	caught := make([]int, len(plants))
	for seed := int64(1); seed <= 12; seed++ {
		for pi, p := range plants {
			s := auditMachine()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				cpu, a := r.Intn(4), uint64(r.Intn(1<<14))
				if r.Intn(3) == 0 {
					write(s, cpu, a)
				} else {
					read(s, cpu, a)
				}
			}
			s.DrainWriteBuffers()
			if err := s.CheckFilterSafety(); err != nil {
				t.Fatalf("seed %d: clean machine reported unsafe: %v", seed, err)
			}
			if err := peekSweep(s); err != nil {
				t.Fatalf("seed %d: clean machine fails the peek sweep: %v", seed, err)
			}

			cpu := r.Intn(4)
			var resident []uint64
			s.nodes[cpu].l2.ForEachValidUnit(func(u uint64, _ cache.State) { resident = append(resident, u) })
			if len(resident) == 0 {
				t.Fatalf("seed %d: cpu%d caches nothing", seed, cpu)
			}
			u := resident[r.Intn(len(resident))]
			p.plant(s.pipes[cpu].bank.filters[p.filter], u, s.geom.BlockOfUnit(u))

			got, want := s.CheckFilterSafety(), peekSweep(s)
			if (got == nil) != (want == nil) {
				t.Fatalf("seed %d, %s: audit says %v, peek sweep says %v", seed, p.name, got, want)
			}
			if got == nil {
				continue
			}
			caught[pi]++
			if name := auditFilters[p.filter]; !strings.Contains(got.Error(), "filter "+name+" claims") {
				t.Errorf("seed %d, %s: error %q does not name %s", seed, p.name, got, name)
			}
		}
	}
	for pi, p := range plants {
		if caught[pi] == 0 {
			t.Errorf("%s: no seed produced a violation, so nothing was compared", p.name)
		}
	}
}

func TestDeepSafetySweepCatchesPlantedViolation(t *testing.T) {
	// Verify CheckFilterSafety's filter-state audit actually detects a
	// lying filter of every kind: alone on a machine, cpu0's filter is
	// corrupted to claim its one cached block (or unit) absent.
	for _, p := range plants {
		name := auditFilters[p.filter]
		cfg := PaperConfig(2)
		cfg.WBEntries = 0
		cfg.Filters = []jetty.Config{jetty.MustParse(name)}
		s := New(cfg)
		a := uint64(0x2000)
		read(s, 0, a)
		if err := s.CheckFilterSafety(); err != nil {
			t.Fatalf("%s: clean machine reported unsafe: %v", p.name, err)
		}
		g := s.geom
		p.plant(s.pipes[0].bank.filters[0], g.Unit(a), g.Block(a))
		if err := s.CheckFilterSafety(); err == nil {
			t.Errorf("%s (%s): planted violation not detected by the audit", p.name, name)
		}
	}
}
