package cluster_test

import (
	"fmt"
	"testing"

	"jetty/internal/engine"
	"jetty/internal/service"
	"jetty/internal/sweep"
)

// The coordinator's in-memory result tier is the engine its sweeps run
// on: a cell its cache holds resolves without a dispatch.

// cacheRig runs one-cell sweeps through a coordinator over one worker,
// on an engine with the given cache capacity.
type cacheRig struct {
	eng *engine.Engine
	run func(app string) (dispatched bool)
}

func newCacheRig(t *testing.T, capacity int) cacheRig {
	_, clients := startWorkers(t, 1, service.Options{Workers: 2})
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{CacheEntries: capacity})
	return cacheRig{eng: eng, run: func(app string) bool {
		before := co.Stats().CellsDispatched
		spec := sweep.Spec{Name: app, Workloads: []string{app}, Filters: []string{"EJ-16x2"}, Scale: 0.02}
		waitSweep(t, submit(t, eng, co, spec, nil, sweep.Submission{}))
		return co.Stats().CellsDispatched != before
	}}
}

// TestMemoNonpositiveCapacityIsNoop pins the -cache "negative disables"
// contract on the coordinator: a disabled cache holds nothing, so every
// rerun dispatches again.
func TestMemoNonpositiveCapacityIsNoop(t *testing.T) {
	for _, capacity := range []int{-1, -4096} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			rig := newCacheRig(t, capacity)
			for i := 0; i < 2; i++ {
				if !rig.run("Lu") {
					t.Fatalf("run %d resolved without a dispatch on a disabled cache", i+1)
				}
			}
			if n := rig.eng.Stats().CacheEntries; n != 0 {
				t.Fatalf("CacheEntries = %d; want 0 (disabled cache must hold nothing)", n)
			}
		})
	}
}

func TestMemoLRUEviction(t *testing.T) {
	rig := newCacheRig(t, 2)
	for _, app := range []string{"Lu", "ch"} {
		if !rig.run(app) {
			t.Fatalf("cold %s resolved without a dispatch", app)
		}
	}
	if rig.run("Lu") { // refresh Lu: ch is now the eviction victim
		t.Fatal("Lu missing")
	}
	if !rig.run("Fmm") {
		t.Fatal("cold Fmm resolved without a dispatch")
	}
	if n := rig.eng.Stats().CacheEntries; n != 2 {
		t.Fatalf("CacheEntries = %d; want 2", n)
	}
	for _, app := range []string{"Lu", "Fmm"} {
		if rig.run(app) {
			t.Fatalf("%s missing", app)
		}
	}
	if !rig.run("ch") {
		t.Fatal("ch should have been evicted")
	}
}
