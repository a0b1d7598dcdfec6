package smp

import (
	"fmt"
	"testing"

	"jetty/internal/cache"
)

// TestCheckCoherenceCatchesPlantedViolations corrupts the states of one
// unit shared by three CPUs and checks each MOESI invariant is reported
// with its error text.
func TestCheckCoherenceCatchesPlantedViolations(t *testing.T) {
	const a = 0x4000
	for _, tc := range []struct {
		states [3]cache.State
		want   string
	}{
		{[3]cache.State{cache.Modified, cache.Exclusive, cache.Shared}, "has 2 M/E holders"},
		{[3]cache.State{cache.Modified, cache.Shared, cache.Shared}, "held M/E alongside 0 O + 2 S copies"},
		{[3]cache.State{cache.Exclusive, cache.Owned, cache.Shared}, "held M/E alongside 1 O + 1 S copies"},
		{[3]cache.State{cache.Owned, cache.Owned, cache.Shared}, "has 2 owners"},
	} {
		s := tiny()
		for cpu := 0; cpu < 3; cpu++ {
			read(s, cpu, a)
		}
		if err := s.CheckCoherence(); err != nil {
			t.Fatalf("clean machine reported incoherent: %v", err)
		}
		unit := s.geom.Unit(a)
		for cpu, st := range tc.states {
			l2 := &s.nodes[cpu].l2
			l2.SetStateAt(l2.FindBlock(s.geom.Block(a)), unit, st)
		}
		want := fmt.Sprintf("smp: unit %#x %s", unit, tc.want)
		if err := s.CheckCoherence(); err == nil || err.Error() != want {
			t.Errorf("states %v: CheckCoherence = %v, want %q", tc.states, err, want)
		}
	}
}
