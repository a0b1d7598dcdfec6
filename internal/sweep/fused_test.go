package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"jetty/internal/energy"
	"jetty/internal/engine"
	"jetty/internal/metrics"
	"jetty/internal/sim"
	"jetty/internal/workload"
)

// fusedAxis is the four-family filter axis of the fused differential
// tests: one of each JETTY flavor, so the wide observer bank mixes
// every devirtualized filter kind.
func fusedAxis() []string {
	return []string{"EJ-32x4", "VEJ-32x4-8", "IJ-10x4x7", "HJ(IJ-9x4x7,EJ-32x4)"}
}

// runBothPaths runs spec through the planner and, for reference, cell
// by cell (perCellReference), and returns both results.
func runBothPaths(t *testing.T, spec Spec, traces TraceResolver) (fused, perCell *Result) {
	t.Helper()
	fused, err := Run(context.Background(), testEngine(t), spec, traces)
	if err != nil {
		t.Fatalf("fused path: %v", err)
	}
	return fused, perCellReference(t, spec, traces)
}

// oneFilterSpecs splits spec's filter axis into one spec per filter.
// Every cell of a one-filter spec is a unit of its own, and its key is
// the key of spec's each-mode cell for that filter.
func oneFilterSpecs(spec Spec) []Spec {
	var out []Spec
	for _, f := range spec.normalize().Filters {
		one := spec
		one.Filters = []string{f}
		out = append(out, one)
	}
	return out
}

// perCellReference is the per-cell side of the fused differential: it
// runs each of spec's one-filter specs on its own uncached engine, so
// nothing is served from a shared cache, and folds spec's cells from
// those passes. An each-mode cell takes its result by key; a bank-mode
// cell concatenates its filters' columns (everything else in a result
// is filter-independent).
func perCellReference(t *testing.T, spec Spec, traces TraceResolver) *Result {
	t.Helper()
	byKey := map[string]sim.AppResult{}
	for _, one := range oneFilterSpecs(spec) {
		s, err := Submit(testEngine(t), one, traces, Submission{})
		if err != nil {
			t.Fatalf("per-cell path: %v", err)
		}
		if n := s.FusedGroups(); n != 0 {
			t.Fatalf("one-filter spec scheduled %d fused groups, want 0", n)
		}
		results, err := s.Results(context.Background())
		if err != nil {
			t.Fatalf("per-cell path: %v", err)
		}
		for k, c := range s.Cells() {
			byKey[c.Key] = results[k]
		}
	}
	norm := spec.normalize()
	cells, err := spec.Expand(traces)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]sim.AppResult, len(cells))
	for i, c := range cells {
		for k, f := range c.cfg.Filters {
			r, ok := byKey[sim.Key(c.in, c.cfg.WithFilters(f), norm.Interval)]
			if !ok {
				t.Fatalf("no one-filter run of cell %d's filter %s", c.Index, f.Name())
			}
			if k == 0 {
				results[i] = r.Clone()
				continue
			}
			results[i] = appendColumns(results[i], r)
		}
	}
	return fold(norm, cells, results)
}

// appendColumns appends src's filter columns, aggregate and per-window,
// to dst: the inverse of the fused projection.
func appendColumns(dst, src sim.AppResult) sim.AppResult {
	dst.FilterNames = append(dst.FilterNames, src.FilterNames...)
	dst.FilterCounts = append(dst.FilterCounts, src.FilterCounts...)
	dst.Coverage = append(dst.Coverage, src.Coverage...)
	if tl := dst.Timeline; tl != nil {
		tl.FilterNames = append(tl.FilterNames, src.Timeline.FilterNames...)
		for w := range tl.Windows {
			tl.Windows[w].Filters = append(tl.Windows[w].Filters, src.Timeline.Windows[w].Filters...)
		}
	}
	return dst
}

// assertResultsIdentical compares everything a sweep result carries
// except the spec itself: per-cell AppResults, flattened metrics,
// retained timelines, and the GroupBy aggregation over every axis.
func assertResultsIdentical(t *testing.T, label string, fused, perCell *Result) {
	t.Helper()
	if len(fused.Cells) != len(perCell.Cells) {
		t.Fatalf("%s: %d fused cells vs %d per-cell", label, len(fused.Cells), len(perCell.Cells))
	}
	for i := range fused.Cells {
		if fused.Cells[i].Cell.Key != perCell.Cells[i].Cell.Key {
			t.Fatalf("%s: cell %d keys diverge: fused %s, per-cell %s",
				label, i, fused.Cells[i].Cell.Key, perCell.Cells[i].Cell.Key)
		}
		if !reflect.DeepEqual(fused.Cells[i].Result, perCell.Cells[i].Result) {
			t.Errorf("%s: cell %d (%s on %s, filters %v) result diverges",
				label, i, fused.Cells[i].Cell.Workload, fused.Cells[i].Cell.Machine, fused.Cells[i].Cell.Filters)
		}
	}
	if !reflect.DeepEqual(fused.Metrics, perCell.Metrics) {
		t.Errorf("%s: metrics diverge", label)
	}
	if !reflect.DeepEqual(fused.Timelines, perCell.Timelines) {
		t.Errorf("%s: retained timelines diverge", label)
	}
	axes := []Axis{ByWorkload, ByMachine, ByFilter}
	if !reflect.DeepEqual(GroupBy(fused.Metrics, axes...), GroupBy(perCell.Metrics, axes...)) {
		t.Errorf("%s: GroupBy aggregation diverges", label)
	}
}

// TestSweepFusedMatchesPerCell is the headline differential test: every
// library workload (the Table 2 suite, the scenarios, and both phased
// scenarios) crossed with the four-family filter axis in "each" mode
// runs through the fused scheduler and cell by cell from one-filter
// specs, and every derived number — per-cell AppResults, metrics, sampled
// timelines, grouped aggregates — must be bit-identical.
func TestSweepFusedMatchesPerCell(t *testing.T) {
	var names []string
	for _, sp := range workload.Library() {
		names = append(names, sp.Name)
	}
	spec := Spec{
		Name:       "fused-differential",
		Workloads:  names,
		Filters:    fusedAxis(),
		FilterMode: ModeEach,
		Scale:      0.02,
		Interval:   1024,
		Timelines:  TimelinesAll,
	}

	// The fused path must actually fuse: one group per library workload.
	s, err := Submit(testEngine(t), spec, nil, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.FusedGroups(); got != len(names) {
		t.Errorf("scheduled %d fused groups, want %d (one per workload)", got, len(names))
	}
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	fused, perCell := runBothPaths(t, spec, nil)
	assertResultsIdentical(t, "library", fused, perCell)
}

// randomSpec draws a random but valid sweep spec: random workload
// subset, machines, filter axis, bank|each placement, interval, repeat
// and seed stride.
func randomSpec(rng *rand.Rand) Spec {
	workloads := []string{"Lu", "Cholesky", "Fft", "WebServer", "PhasedOLTP"}
	rng.Shuffle(len(workloads), func(i, j int) { workloads[i], workloads[j] = workloads[j], workloads[i] })
	filters := fusedAxis()
	rng.Shuffle(len(filters), func(i, j int) { filters[i], filters[j] = filters[j], filters[i] })

	spec := Spec{
		Workloads: workloads[:1+rng.Intn(2)],
		Filters:   filters[:2+rng.Intn(3)],
		Scale:     0.01,
		Repeat:    1 + rng.Intn(2),
		Machines:  []Machine{{}},
	}
	if rng.Intn(2) == 0 {
		spec.Machines = append(spec.Machines, Machine{CPUs: 2, L2Bytes: 512 << 10, L2Assoc: 2})
	}
	if rng.Intn(2) == 0 {
		spec.FilterMode = ModeEach
	} else {
		spec.FilterMode = ModeBank
	}
	if rng.Intn(2) == 0 {
		spec.Interval = 512 << rng.Intn(3)
		spec.Timelines = []string{TimelinesNone, TimelinesFirst, TimelinesAll}[rng.Intn(3)]
	}
	if rng.Intn(3) == 0 {
		spec.SeedStride = int64(1 + rng.Intn(1000))
	}
	return spec
}

// TestSweepFusedMatchesPerCellRandom is the property-test variant:
// randomized specs through both paths, still expecting bit identity.
// The seed is fixed for reproducibility; the specs vary machines,
// axes, filter placement, intervals, repeats and seed strides.
func TestSweepFusedMatchesPerCellRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 6
	if testing.Short() {
		n = 2
	}
	for i := 0; i < n; i++ {
		spec := randomSpec(rng)
		label := fmt.Sprintf("spec %d (%+v)", i, spec)
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: invalid: %v", label, err)
		}
		fused, perCell := runBothPaths(t, spec, nil)
		assertResultsIdentical(t, label, fused, perCell)
	}
}

// TestFusedCacheInterop pins the cache-key discipline across unit
// shapes: fused runs fill the same content-addressed entries as the
// one-filter specs' units of one, in both directions, and partially
// cached groups skip the cached banks without perturbing the rest.
func TestFusedCacheInterop(t *testing.T) {
	spec := Spec{
		Workloads:  []string{"Lu"},
		Filters:    fusedAxis(),
		FilterMode: ModeEach,
		Scale:      0.02,
	}
	// runOneFilter runs specs on eng and returns their cell and cache-hit
	// totals.
	runOneFilter := func(t *testing.T, eng *engine.Engine, specs []Spec) (cells, hits int) {
		t.Helper()
		for _, one := range specs {
			s, err := Submit(eng, one, nil, Submission{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			st := s.Status(false)
			cells += st.Cells
			hits += st.CacheHits
		}
		return cells, hits
	}

	t.Run("fused-then-per-cell", func(t *testing.T) {
		eng := testEngine(t)
		if _, err := Run(context.Background(), eng, spec, nil); err != nil {
			t.Fatal(err)
		}
		executed := eng.Stats().Executed
		if cells, hits := runOneFilter(t, eng, oneFilterSpecs(spec)); hits != cells {
			t.Errorf("per-cell rerun after fused: %d/%d cache hits", hits, cells)
		}
		if after := eng.Stats().Executed; after != executed {
			t.Errorf("per-cell rerun recomputed %d cells after a fused sweep", after-executed)
		}
	})

	t.Run("per-cell-then-fused", func(t *testing.T) {
		eng := testEngine(t)
		runOneFilter(t, eng, oneFilterSpecs(spec))
		executed := eng.Stats().Executed
		s, err := Submit(eng, spec, nil, Submission{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := s.Status(false); st.CacheHits != st.Cells {
			t.Errorf("fused rerun after per-cell: %d/%d cache hits", st.CacheHits, st.Cells)
		}
		if after := eng.Stats().Executed; after != executed {
			t.Errorf("fused rerun recomputed %d cells after a per-cell sweep", after-executed)
		}
	})

	t.Run("partial-cache", func(t *testing.T) {
		eng := testEngine(t)
		// Warm two of the four filter variants as units of one.
		runOneFilter(t, eng, oneFilterSpecs(spec)[:2])
		executed := eng.Stats().Executed

		s, err := Submit(eng, spec, nil, Submission{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		st := s.Status(true)
		if st.CacheHits != 2 {
			t.Errorf("partially cached fused sweep: %d cache hits, want 2", st.CacheHits)
		}
		// The two cold banks ride one fused pass: exactly 2 new executions.
		if after := eng.Stats().Executed; after != executed+2 {
			t.Errorf("fused sweep over a half-warm cache executed %d new tasks, want 2", after-executed)
		}
		// And the mixed-provenance result still matches an all-cold run.
		cold, err := Run(context.Background(), testEngine(t), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Metrics, cold.Metrics) {
			t.Error("partially cached fused sweep diverges from the cold run")
		}
	})
}

// TestOnWindowStreamsFusedUnits: a sampled each-mode sweep streams, for
// every cell that executes for it, exactly the windows its retained
// timeline holds (energy breakdown included) through
// Submission.OnWindow, from fused units as from units of one. Cells
// served from the cache or coalesced onto a sibling stream nothing:
// the duplicate workload coalesces, and a pre-warmed filter makes the
// fused pass carry a gap in its live members.
func TestOnWindowStreamsFusedUnits(t *testing.T) {
	spec := Spec{
		Workloads:  []string{"Lu", "ch", "Lu"},
		Filters:    fusedAxis(),
		FilterMode: ModeEach,
		Scale:      0.02,
		Interval:   1024,
		Timelines:  TimelinesAll,
	}
	eng := testEngine(t)
	if _, err := Run(context.Background(), eng, oneFilterSpecs(spec)[1], nil); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	streamed := map[int][]metrics.Window{}
	s, err := Submit(eng, spec, nil, Submission{OnWindow: func(cell int, w *metrics.Window) {
		c := *w
		c.Filters = append([]energy.FilterCounts(nil), w.Filters...)
		mu.Lock()
		streamed[cell] = append(streamed[cell], c)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.FusedGroups(); got != 2 {
		t.Errorf("scheduled %d fused groups, want 2 (one per distinct workload)", got)
	}
	res, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timelines) != len(res.Cells) {
		t.Fatalf("%d timelines retained for %d cells", len(res.Timelines), len(res.Cells))
	}
	dispos := map[int]string{}
	for _, cs := range s.Status(true).Cell {
		dispos[cs.Index] = cs.Disposition
	}
	mu.Lock()
	defer mu.Unlock()
	var executed int
	for _, tl := range res.Timelines {
		got := streamed[tl.Cell]
		if dispos[tl.Cell] != engine.DispositionExecuted {
			if len(got) != 0 {
				t.Errorf("cell %d (%s) streamed %d windows", tl.Cell, dispos[tl.Cell], len(got))
			}
			continue
		}
		executed++
		if len(got) == 0 || !reflect.DeepEqual(got, tl.Timeline.Windows) {
			t.Errorf("cell %d streamed %d windows that differ from its %d retained ones",
				tl.Cell, len(got), len(tl.Timeline.Windows))
		} else if got[0].Energy == (energy.Breakdown{}) {
			t.Errorf("cell %d streamed a window without its energy breakdown", tl.Cell)
		}
	}
	// Lu and ch each execute three of their four filters; the duplicate
	// Lu coalesces onto the first.
	if executed != 6 {
		t.Errorf("%d cells executed, want 6", executed)
	}
}

// fusedRetireCollector is an OnRetire hook buffering traces by key.
type fusedRetireCollector struct {
	mu     sync.Mutex
	traces []engine.TaskTrace
	added  chan struct{} // signaled after each trace
}

func newFusedRetireCollector() *fusedRetireCollector {
	return &fusedRetireCollector{added: make(chan struct{}, 1)}
}

func (c *fusedRetireCollector) hook(tr engine.TaskTrace) {
	c.mu.Lock()
	c.traces = append(c.traces, tr)
	c.mu.Unlock()
	select {
	case c.added <- struct{}{}:
	default:
	}
}

// waitKeys blocks until traces for at least n distinct keys have
// arrived, failing the test once deadline fires.
func (c *fusedRetireCollector) waitKeys(t *testing.T, n int, deadline <-chan time.Time) {
	t.Helper()
	for len(c.byKey()) < n {
		select {
		case <-c.added:
		case <-deadline:
			t.Fatalf("traces for %d keys, want %d", len(c.byKey()), n)
		}
	}
}

func (c *fusedRetireCollector) byKey() map[string][]engine.TaskTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string][]engine.TaskTrace{}
	for _, tr := range c.traces {
		out[tr.Key] = append(out[tr.Key], tr)
	}
	return out
}

// TestFusedCancelAndLoss: cancelling a fused sweep mid-run marks every
// member cell canceled (and nothing else), and retire traces fire
// exactly once per member with the fused kind, the submission origin,
// and a canceled terminal state.
func TestFusedCancelAndLoss(t *testing.T) {
	col := newFusedRetireCollector()
	eng := engine.New(engine.Options{OnRetire: col.hook})
	t.Cleanup(eng.Close)

	// A big budget keeps the fused pass running until we cancel it; its
	// first timeline window says the pass is under way.
	spec := Spec{
		Workloads:  []string{"Fmm"},
		Filters:    fusedAxis(),
		FilterMode: ModeEach,
		Scale:      100,
		Interval:   1 << 16,
	}
	running := make(chan struct{})
	var once sync.Once
	s, err := Submit(eng, spec, nil, Submission{Origin: "req-cancel-1", OnWindow: func(int, *metrics.Window) {
		once.Do(func() { close(running) })
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s.FusedGroups() != 1 {
		t.Fatalf("scheduled %d fused groups, want 1", s.FusedGroups())
	}

	// Wait for the fused pass to actually start before withdrawing.
	deadline := time.After(30 * time.Second)
	select {
	case <-running:
	case <-deadline:
		t.Fatal("the fused pass never emitted a window")
	}
	if st := s.Status(false); st.State != "running" {
		t.Fatalf("state %s before cancel, want running", st.State)
	}
	s.Cancel()
	if _, err := s.Wait(context.Background()); err == nil {
		t.Fatal("canceled fused sweep returned a result")
	}
	if st := s.Status(false); st.State != "canceled" {
		t.Errorf("state %s after cancel, want canceled", st.State)
	}

	// Every member retires exactly once, as a canceled fused execution.
	cells := s.Cells()
	col.waitKeys(t, len(cells), deadline)
	byKey := col.byKey()
	for _, c := range cells {
		trs := byKey[c.Key]
		if len(trs) != 1 {
			t.Fatalf("cell %s retired %d times, want exactly once", c.Key, len(trs))
		}
		tr := trs[0]
		if tr.Kind != KindFused {
			t.Errorf("cell %s retired with kind %q, want %q", c.Key, tr.Kind, KindFused)
		}
		if tr.Origin != "req-cancel-1" {
			t.Errorf("cell %s retired with origin %q", c.Key, tr.Origin)
		}
		if tr.Disposition != engine.DispositionExecuted || tr.State != engine.Canceled {
			t.Errorf("cell %s retired as %s/%v, want executed/canceled", c.Key, tr.Disposition, tr.State)
		}
		if tr.Err == nil || !errors.Is(tr.Err, context.Canceled) {
			t.Errorf("cell %s retired with err %v", c.Key, tr.Err)
		}
	}
	// The per-cell status JSON mirrors the same story.
	for _, cs := range s.Status(true).Cell {
		if cs.State != "canceled" {
			t.Errorf("cell %d status %s, want canceled", cs.Index, cs.State)
		}
		if cs.Error == "" {
			t.Errorf("cell %d lost its cancellation error", cs.Index)
		}
	}
}

// TestFusedProgressMonotone guards against snapshot tear in fused group
// progress: while the fused pass runs, every member cell's Done must
// move monotonically and never exceed its Total, and the aggregate
// fraction must stay in [0, 1].
func TestFusedProgressMonotone(t *testing.T) {
	eng := testEngine(t)
	spec := Spec{
		Workloads:  []string{"Barnes"},
		Filters:    fusedAxis(),
		FilterMode: ModeEach,
		Scale:      2,
	}
	s, err := Submit(eng, spec, nil, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Wait(context.Background())
		done <- err
	}()

	prev := make(map[int]uint64)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range s.Status(true).Cell {
				if c.State != "done" || c.Done != c.Total {
					t.Errorf("finished cell %d: %s %d/%d", i, c.State, c.Done, c.Total)
				}
			}
			return
		default:
		}
		st := s.Status(true)
		if st.Fraction < 0 || st.Fraction > 1 {
			t.Fatalf("aggregate fraction %v out of range", st.Fraction)
		}
		for _, c := range st.Cell {
			if c.Total > 0 && c.Done > c.Total {
				t.Fatalf("cell %d progress %d exceeds total %d", c.Index, c.Done, c.Total)
			}
			if last, ok := prev[c.Index]; ok && c.Done < last {
				t.Fatalf("cell %d progress went backwards: %d after %d", c.Index, c.Done, last)
			}
			prev[c.Index] = c.Done
		}
	}
}

// TestFusedGroupPlanning pins the planner's grouping rules directly:
// fusion applies exactly to cells agreeing on everything but filters.
func TestFusedGroupPlanning(t *testing.T) {
	spec := Spec{
		Workloads:  []string{"Lu", "ch"},
		Machines:   []Machine{{}, {CPUs: 2, L2Bytes: 512 << 10, L2Assoc: 2}},
		Filters:    []string{"EJ-32x4", "EJ-16x2", "IJ-8x4x7"},
		FilterMode: ModeEach,
		Scale:      0.02,
		Repeat:     2,
	}
	cells, err := spec.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := PlanUnits(cells)
	// One group per (workload, machine, repeat); each holds the 3 filters.
	if want := 2 * 2 * 2; len(groups) != want {
		t.Fatalf("%d groups, want %d", len(groups), want)
	}
	for _, g := range groups {
		if len(g) != 3 {
			t.Fatalf("group %v has %d members, want 3 (one per filter)", g, len(g))
		}
		first := cells[g[0]]
		for _, i := range g[1:] {
			c := cells[i]
			if c.Workload != first.Workload || c.Machine != first.Machine || c.Repeat != first.Repeat {
				t.Errorf("group mixes coordinates: %+v vs %+v", first, c)
			}
			if strings.Join(c.Filters, ",") == strings.Join(first.Filters, ",") {
				t.Errorf("group repeats filter set %v", c.Filters)
			}
		}
	}

	// Bank mode has one cell per (workload, machine, repeat): nothing to
	// fuse, every group is a singleton.
	bank := spec
	bank.FilterMode = ModeBank
	cells, err = bank.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range PlanUnits(cells) {
		if len(g) != 1 {
			t.Errorf("bank-mode group %v not a singleton", g)
		}
	}
}
