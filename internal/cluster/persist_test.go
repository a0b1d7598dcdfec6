package cluster_test

import (
	"reflect"
	"testing"
	"time"

	"jetty/internal/engine"
	"jetty/internal/service"
	"jetty/internal/sim"
	"jetty/internal/store"
	"jetty/internal/sweep"
)

// TestCoordinatorMemoSurvivesRestart pins cross-sweep result
// persistence on a coordinator: a coordinator whose engine is backed by
// a result store delivers a sweep, a brand-new coordinator and engine
// (fresh in-memory cache, i.e. a restart) over the same store resolve
// the identical sweep entirely from disk — zero dispatches, every cell
// a store hit, result DeepEqual — even though the workers also
// restarted and lost their L1 caches.
func TestCoordinatorMemoSurvivesRestart(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk := sim.NewDiskCache(st)

	spec := sweep.Spec{
		Name:       "persist",
		Workloads:  []string{"Lu", "Fmm"},
		Filters:    []string{"EJ-32x4", "EJ-16x2"},
		FilterMode: sweep.ModeEach,
		Scale:      0.02,
	}
	cells, err := spec.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := distinctKeys(cells)

	workers, clients := startWorkers(t, 2, service.Options{Workers: 2})
	co1 := newCoordinator(t, clients, nil)
	eng1 := newEngine(t, co1, engine.Options{Store: disk})
	res1 := waitSweep(t, submit(t, eng1, co1, spec, nil, sweep.Submission{}))

	// Deliveries write through to the store after the sweep resolves;
	// wait for every distinct cell to land before "restarting".
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().Results < want {
		if time.Now().After(deadline) {
			t.Fatalf("store has %d results; want %d", st.Stats().Results, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	eng1.Close()
	co1.Close()

	// Restart everything: fresh coordinator cache, fresh worker engines.
	// Only the disk knows the results now.
	for _, w := range workers {
		w.crash()
		w.restart()
	}
	co2 := newCoordinator(t, clients, nil)
	eng2 := newEngine(t, co2, engine.Options{Store: disk})
	res2 := waitSweep(t, submit(t, eng2, co2, spec, nil, sweep.Submission{}))

	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("restarted coordinator result diverged from original")
	}
	cst := co2.Stats()
	if cst.CellsDispatched != 0 {
		t.Fatalf("CellsDispatched = %d after restart; want 0 (all cells from the persistent store)", cst.CellsDispatched)
	}
	if hits := eng2.Stats().StoreHits; hits != uint64(len(cells)) {
		t.Fatalf("StoreHits = %d; want %d", hits, len(cells))
	}
}

// TestCoordinatorMemoDisabledStillPersists: a negative CacheEntries
// disables the coordinator's in-memory cache but the persistent tier
// still resolves a rerun without dispatches.
func TestCoordinatorMemoDisabledStillPersists(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk := sim.NewDiskCache(st)

	spec := sweep.Spec{Name: "nomemo", Workloads: []string{"Lu"}, Filters: []string{"EJ-16x2"}, Scale: 0.02}
	cells, err := spec.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}

	_, clients := startWorkers(t, 1, service.Options{Workers: 2})
	co := newCoordinator(t, clients, nil)
	eng := newEngine(t, co, engine.Options{Store: disk, CacheEntries: -1})
	res1 := waitSweep(t, submit(t, eng, co, spec, nil, sweep.Submission{}))

	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().Results < distinctKeys(cells) {
		if time.Now().After(deadline) {
			t.Fatalf("store has %d results; want %d", st.Stats().Results, distinctKeys(cells))
		}
		time.Sleep(5 * time.Millisecond)
	}

	dispatched := co.Stats().CellsDispatched
	res2 := waitSweep(t, submit(t, eng, co, spec, nil, sweep.Submission{}))
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("rerun result diverged")
	}
	if n := co.Stats().CellsDispatched - dispatched; n != 0 {
		t.Fatalf("rerun dispatched %d cells; want 0", n)
	}
	est := eng.Stats()
	if est.CacheEntries != 0 {
		t.Fatalf("CacheEntries = %d with the cache disabled; want 0", est.CacheEntries)
	}
	if est.StoreHits != uint64(len(cells)) {
		t.Fatalf("StoreHits = %d; want %d (rerun resolved from the persistent tier)", est.StoreHits, len(cells))
	}
}
