package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"slices"
	"strings"
	"testing"

	"jetty/internal/energy"
	"jetty/internal/engine"
	"jetty/internal/jetty"
	"jetty/internal/sim"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

// testEngine returns a private engine, closed with the test.
func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New(engine.Options{})
	t.Cleanup(eng.Close)
	return eng
}

// acceptanceSpec is the ISSUE's acceptance shape: 2 workloads × 2
// machines × 3 filters, at a test-friendly scale.
func acceptanceSpec() Spec {
	return Spec{
		Name:      "acceptance",
		Workloads: []string{"Lu", "ch"},
		Machines: []Machine{
			{},
			{CPUs: 2, L2Bytes: 512 << 10, L2Assoc: 2},
		},
		Filters: []string{"EJ-32x4", "EJ-16x2", "IJ-8x4x7"},
		Scale:   0.02,
	}
}

// metricKey indexes a metric set by its axis coordinates.
func metricKey(workloadName, machine, filter string, repeat int) string {
	return workloadName + "|" + machine + "|" + filter + "|" + string(rune('0'+repeat))
}

func metricMap(t *testing.T, ms []Metric) map[string]Metric {
	t.Helper()
	out := map[string]Metric{}
	for _, m := range ms {
		k := metricKey(m.Workload, m.Machine, m.Filter, m.Repeat)
		if _, dup := out[k]; dup {
			t.Fatalf("duplicate metric %s", k)
		}
		out[k] = m
	}
	return out
}

// TestSweepMatchesIndividualRuns is the acceptance criterion: every
// aggregated number the sweep reports equals running that cell
// individually through the serial reference path.
func TestSweepMatchesIndividualRuns(t *testing.T) {
	spec := acceptanceSpec()
	res, err := Run(context.Background(), testEngine(t), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 2 * 2 // bank mode: one cell per (workload, machine)
	if len(res.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(res.Cells), wantCells)
	}
	if len(res.Metrics) != wantCells*3 {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), wantCells*3)
	}
	got := metricMap(t, res.Metrics)

	fcs, err := jetty.ParseAll(spec.Filters)
	if err != nil {
		t.Fatal(err)
	}
	tech := energy.Tech180()
	for _, wname := range spec.Workloads {
		sp, err := workload.Lookup(wname)
		if err != nil {
			t.Fatal(err)
		}
		sp = sp.Scale(spec.Scale)
		for _, m := range spec.Machines {
			cfg, err := m.Config(fcs)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := sim.RunApp(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial := sim.EnergyReductions(ref, cfg, tech, energy.SerialTagData)
			for fi, fname := range ref.FilterNames {
				mt, ok := got[metricKey(wname, m.Label(), fname, 0)]
				if !ok {
					t.Fatalf("no metric for %s/%s/%s", wname, m.Label(), fname)
				}
				if mt.Coverage != ref.Coverage[fi] {
					t.Errorf("%s/%s/%s coverage %v, individual run says %v",
						wname, m.Label(), fname, mt.Coverage, ref.Coverage[fi])
				}
				if mt.SerialOverAll != serial[fi].OverAll {
					t.Errorf("%s/%s/%s serial energy %v, individual run says %v",
						wname, m.Label(), fname, mt.SerialOverAll, serial[fi].OverAll)
				}
				if mt.SnoopMissOfAll != ref.SnoopMissOfAll {
					t.Errorf("%s/%s/%s snoopmiss %v, individual run says %v",
						wname, m.Label(), fname, mt.SnoopMissOfAll, ref.SnoopMissOfAll)
				}
			}
		}
	}
}

// TestSweepRerunHitsCache: an identical resubmission recomputes nothing —
// every cell is served from the engine's content-addressed cache.
func TestSweepRerunHitsCache(t *testing.T) {
	eng := testEngine(t)
	spec := acceptanceSpec()
	if _, err := Run(context.Background(), eng, spec, nil); err != nil {
		t.Fatal(err)
	}
	executedBefore := eng.Stats().Executed

	s, err := Submit(eng, spec, nil, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Status(true)
	if st.State != "done" || st.CacheHits != len(s.Cells()) {
		t.Fatalf("rerun status %s with %d/%d cache hits, want all", st.State, st.CacheHits, len(s.Cells()))
	}
	for _, c := range st.Cell {
		if !c.CacheHit {
			t.Errorf("cell %d (%s on %s) recomputed", c.Index, c.Workload, c.Machine)
		}
	}
	if after := eng.Stats().Executed; after != executedBefore {
		t.Errorf("rerun executed %d new tasks", after-executedBefore)
	}
}

// TestBankMatchesEach: filter placement is a cost knob, not a result
// knob — per-filter numbers are identical whether the filters share one
// pass or each get their own.
func TestBankMatchesEach(t *testing.T) {
	eng := testEngine(t)
	bank := acceptanceSpec()
	each := bank
	each.FilterMode = ModeEach

	bres, err := Run(context.Background(), eng, bank, nil)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := Run(context.Background(), eng, each, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eres.Cells) != len(bres.Cells)*len(bank.Filters) {
		t.Fatalf("each mode ran %d cells, want %d", len(eres.Cells), len(bres.Cells)*len(bank.Filters))
	}
	bm, em := metricMap(t, bres.Metrics), metricMap(t, eres.Metrics)
	if len(bm) != len(em) {
		t.Fatalf("bank has %d metrics, each has %d", len(bm), len(em))
	}
	for k, b := range bm {
		if em[k] != b {
			t.Errorf("metric %s differs: bank %+v, each %+v", k, b, em[k])
		}
	}
}

// TestTraceCells: a "trace:" axis entry replays the stored stream and
// reports exactly what a direct replay reports.
func TestTraceCells(t *testing.T) {
	sp, err := workload.Lookup("WebServer")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, sp.Source(2), 2*4000, trace.WriterOptions{Meta: trace.Meta{App: sp.Name}}); err != nil {
		t.Fatal(err)
	}
	in, err := sim.LoadTrace("", buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	resolver := func(ref string) (sim.TraceInput, error) {
		if ref == "web" {
			return in, nil
		}
		return sim.TraceInput{}, fmt.Errorf("unknown trace %q", ref)
	}

	spec := Spec{
		Workloads: []string{"trace:web", "Lu"},
		Filters:   []string{"EJ-32x4"},
		Scale:     0.02,
		Repeat:    3, // trace cells must collapse to one repetition
	}
	cells, err := spec.Expand(resolver)
	if err != nil {
		t.Fatal(err)
	}
	traceCells, genCells := 0, 0
	for _, c := range cells {
		if strings.HasPrefix(c.Workload, TracePrefix) {
			traceCells++
		} else {
			genCells++
		}
	}
	if traceCells != 1 || genCells != 3 {
		t.Fatalf("expansion: %d trace cells (want 1), %d generator cells (want 3)", traceCells, genCells)
	}

	res, err := Run(context.Background(), testEngine(t), spec, resolver)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Machine{}.Config([]jetty.Config{jetty.MustParse("EJ-32x4")})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := sim.Run(context.Background(), sim.Input{Trace: &in}, cfg, sim.Plan{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := replayed[0]
	for _, m := range res.Metrics {
		if m.Workload != "trace:web" {
			continue
		}
		if want, _ := direct.CoverageOf("EJ-32x4"); m.Coverage != want {
			t.Errorf("trace cell coverage %v, direct replay %v", m.Coverage, want)
		}
	}

	// Unknown reference and missing resolver both fail loudly, and the
	// resolver's own diagnosis survives into the error.
	broken := func(string) (sim.TraceInput, error) { return sim.TraceInput{}, fmt.Errorf("file is corrupt") }
	if _, err := spec.Expand(broken); err == nil || !strings.Contains(err.Error(), "file is corrupt") {
		t.Errorf("resolver error not surfaced: %v", err)
	}
	if _, err := spec.Expand(nil); err == nil {
		t.Error("nil resolver accepted for a trace spec")
	}
}

// TestRepeatSeeds: repetitions perturb the seed, producing distinct cells
// whose spread the aggregation reports.
func TestRepeatSeeds(t *testing.T) {
	spec := Spec{
		Workloads: []string{"Lu"},
		Filters:   []string{"EJ-16x2"},
		Scale:     0.02,
		Repeat:    3,
	}
	cells, err := spec.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3", len(cells))
	}
	keys := map[string]bool{}
	for _, c := range cells {
		keys[c.Key] = true
	}
	if len(keys) != 3 {
		t.Fatalf("repetitions share keys: %d distinct of 3", len(keys))
	}

	res, err := Run(context.Background(), testEngine(t), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupBy(res.Metrics, ByWorkload, ByFilter)
	if len(groups) != 1 {
		t.Fatalf("%d groups, want 1", len(groups))
	}
	cov := groups[0].Columns[0]
	if cov.N != 3 {
		t.Errorf("coverage N = %d, want 3", cov.N)
	}
	if !(cov.Min <= cov.Mean && cov.Mean <= cov.Max) {
		t.Errorf("stats out of order: %+v", cov)
	}
	if cov.Min == cov.Max {
		t.Errorf("three seeds produced identical coverage %v — seed policy not applied", cov.Min)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},                                      // no workloads
		{Workloads: []string{"NoSuchApp"}},      // unknown workload
		{Workloads: []string{"Lu"}, Scale: -1},  // negative scale
		{Workloads: []string{"Lu"}, Scale: 1e9}, // over the scale cap
		{Workloads: []string{"Lu"}, Filters: []string{"XX-1"}},       // bad filter
		{Workloads: []string{"Lu"}, FilterMode: "sideways"},          // bad mode
		{Workloads: []string{"Lu"}, Repeat: MaxRepeat + 1},           // over repeat cap
		{Workloads: []string{"Lu"}, Machines: []Machine{{CPUs: 99}}}, // invalid machine
		{Workloads: []string{TracePrefix}},                           // empty trace ref
		{Workloads: []string{"Lu"}, Interval: 8},                     // interval below minimum
		{Workloads: []string{"Lu"}, Timelines: "some"},               // bad retention policy
		{Workloads: []string{"Lu"}, Timelines: TimelinesAll},         // retention without sampling
		{Workloads: []string{"Lu"}, Interval: 64, Scale: MaxScale},   // over the per-cell window cap
		{ // over the cell cap
			Workloads:  []string{"Lu", "ch", "ff", "oc", "ra", "em", "ba", "fm", "rt", "un"},
			FilterMode: ModeEach,
			Repeat:     MaxRepeat,
		},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
	if err := acceptanceSpec().Validate(); err != nil {
		t.Errorf("acceptance spec rejected: %v", err)
	}
}

// TestSweepTimelines covers the sampled-sweep path end to end: every
// cell runs sampled, per-filter metrics are unchanged versus the
// unsampled sweep, cell results are stripped of timelines, and the
// retention policy keeps exactly the advertised set.
func TestSweepTimelines(t *testing.T) {
	eng := testEngine(t)
	base := Spec{
		Name:      "timelines",
		Workloads: []string{"Lu", "ch"},
		Filters:   []string{"EJ-16x2", "EJ-32x4"},
		Scale:     0.02,
		Repeat:    2,
		Interval:  1024,
	}

	plain := base
	plain.Interval, plain.Timelines = 0, ""
	plainRes, err := Run(context.Background(), eng, plain, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, policy := range []string{TimelinesNone, TimelinesFirst, TimelinesAll} {
		spec := base
		spec.Timelines = policy
		res, err := Run(context.Background(), eng, spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}

		// Sampling changes no metric (bit-identical per-filter numbers).
		if len(res.Metrics) != len(plainRes.Metrics) {
			t.Fatalf("%s: %d metrics vs %d unsampled", policy, len(res.Metrics), len(plainRes.Metrics))
		}
		for i := range res.Metrics {
			if res.Metrics[i] != plainRes.Metrics[i] {
				t.Errorf("%s: metric %d drifted under sampling:\n sampled %+v\n plain   %+v",
					policy, i, res.Metrics[i], plainRes.Metrics[i])
			}
		}

		// Cells never carry timelines (Result.Timelines is the one home).
		for _, c := range res.Cells {
			if c.Result.Timeline != nil {
				t.Fatalf("%s: cell %d kept its timeline", policy, c.Cell.Index)
			}
		}

		var want int
		switch policy {
		case TimelinesNone:
			want = 0
		case TimelinesFirst:
			want = 2 // one per (workload, machine); repeats collapse
		case TimelinesAll:
			want = len(res.Cells)
		}
		if len(res.Timelines) != want {
			t.Fatalf("%s: retained %d timelines, want %d", policy, len(res.Timelines), want)
		}
		for _, ct := range res.Timelines {
			if policy == TimelinesFirst && ct.Repeat != 0 {
				t.Errorf("%s: retained repeat %d of %s", policy, ct.Repeat, ct.Workload)
			}
			if ct.Timeline == nil || len(ct.Timeline.Windows) == 0 {
				t.Fatalf("%s: empty retained timeline for cell %d", policy, ct.Cell)
			}
			// The retained timeline conserves its cell's run length.
			refs, _, _ := ct.Timeline.Sum()
			if cellRefs := res.Cells[ct.Cell].Result.Refs; refs != cellRefs {
				t.Errorf("%s: timeline sums to %d refs, cell ran %d", policy, refs, cellRefs)
			}
		}
	}
}

// TestSampledSweepRerunHitsCache pins the cache key discipline: a
// sampled rerun recomputes nothing, and sampled cells never collide
// with the unsampled cells of the same cross-product.
func TestSampledSweepRerunHitsCache(t *testing.T) {
	eng := testEngine(t)
	spec := Spec{
		Workloads: []string{"Lu"},
		Filters:   []string{"EJ-16x2"},
		Scale:     0.02,
		Interval:  1024,
		Timelines: TimelinesAll,
	}
	if _, err := Run(context.Background(), eng, spec, nil); err != nil {
		t.Fatal(err)
	}
	s, err := Submit(eng, spec, nil, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Status(false); st.CacheHits != st.Cells {
		t.Errorf("sampled rerun recomputed: %d/%d cache hits", st.CacheHits, st.Cells)
	}
	if len(res.Timelines) == 0 {
		t.Fatal("cached sampled rerun lost its timelines")
	}

	// The unsampled variant must not be served the sampled cell.
	plain := spec
	plain.Interval, plain.Timelines = 0, ""
	ps, err := Submit(eng, plain, nil, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := ps.Status(false); st.CacheHits != 0 {
		t.Errorf("unsampled sweep hit the sampled cache entry (%d hits)", st.CacheHits)
	}
}

func TestSweepCancel(t *testing.T) {
	eng := testEngine(t)
	spec := Spec{Workloads: []string{"Fmm"}, Filters: []string{"EJ-8x2"}, Scale: 100}
	s, err := Submit(eng, spec, nil, Submission{})
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel()
	if _, err := s.Wait(context.Background()); err == nil {
		t.Fatal("canceled sweep returned a result")
	}
	st := s.Status(false)
	if st.State != "canceled" {
		t.Errorf("state %s after cancel", st.State)
	}
}

// TestSweepDone: Done closes once every cell is terminal, whether the
// sweep finished done, failed or canceled, and waiting on it cancels no
// cell: a failed unit leaves its sibling running to completion.
func TestSweepDone(t *testing.T) {
	small := Spec{Workloads: []string{"Lu", "ch"}, Filters: []string{"EJ-32x4", "EJ-16x2"}, FilterMode: ModeEach, Scale: 0.02}

	t.Run("done", func(t *testing.T) {
		s, err := Submit(testEngine(t), small, nil, Submission{})
		if err != nil {
			t.Fatal(err)
		}
		<-s.Done()
		if s.Done() != s.Done() {
			t.Error("Done returns a different channel on each call")
		}
		if st := s.Status(false); st.State != "done" || st.Finished != len(s.cells) {
			t.Errorf("after Done: state %s with %d/%d cells finished", st.State, st.Finished, len(s.cells))
		}
	})

	t.Run("failed", func(t *testing.T) {
		release := make(chan struct{})
		remote := func(ctx context.Context, unit []Cell) ([]sim.AppResult, error) {
			if unit[0].Index == 0 {
				return nil, fmt.Errorf("unit lost")
			}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return runUnit(ctx, small, unit)
		}
		s, err := Submit(testEngine(t), small, nil, Submission{Remote: remote})
		if err != nil {
			t.Fatal(err)
		}
		<-s.jobs[0].Done()
		select {
		case <-s.Done():
			t.Fatal("Done closed while a unit was still pending")
		default:
		}
		close(release)
		<-s.Done()
		if st := s.Status(false); st.State != "failed" {
			t.Errorf("state %s, want failed", st.State)
		}
		for k, j := range s.jobs {
			if s.cells[k].Workload != s.cells[0].Workload && j.State() != engine.Done {
				t.Errorf("cell %d of the pending unit ended %s, want done", k, j.State())
			}
		}
	})

	t.Run("canceled", func(t *testing.T) {
		s, err := Submit(testEngine(t), Spec{Workloads: []string{"Fmm"}, Filters: []string{"EJ-8x2"}, Scale: 100}, nil, Submission{})
		if err != nil {
			t.Fatal(err)
		}
		s.Cancel()
		<-s.Done()
		if st := s.Status(false); st.State != "canceled" {
			t.Errorf("state %s, want canceled", st.State)
		}
	})

	t.Run("cached", func(t *testing.T) {
		eng := testEngine(t)
		if _, err := Run(t.Context(), eng, small, nil); err != nil {
			t.Fatal(err)
		}
		s, err := Submit(eng, small, nil, Submission{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Results(t.Context()); err != nil {
			t.Fatal(err)
		}
		select {
		case <-s.Done():
		default:
			t.Error("Done not closed after Results on a sweep served from cache")
		}
	})
}

func TestRenderers(t *testing.T) {
	res, err := Run(context.Background(), testEngine(t), Spec{
		Workloads: []string{"Lu", "ch"},
		Filters:   []string{"EJ-32x4", "EJ-16x2"},
		Scale:     0.02,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// CSV round-trips through the standard parser with a stable shape.
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, res.Metrics); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(res.Metrics) || len(rows[0]) != 4+len(Columns) {
		t.Fatalf("cells CSV shape %dx%d", len(rows), len(rows[0]))
	}

	axes := []Axis{ByFilter}
	groups := GroupBy(res.Metrics, axes...)
	if len(groups) != 2 {
		t.Fatalf("%d groups by filter, want 2", len(groups))
	}
	buf.Reset()
	if err := WriteGroupsCSV(&buf, groups, axes); err != nil {
		t.Fatal(err)
	}
	if rows, err = csv.NewReader(&buf).ReadAll(); err != nil || len(rows) != 3 {
		t.Fatalf("groups CSV: %v, %d rows", err, len(rows))
	}

	md := Markdown("sweep", groups, axes)
	for _, want := range []string{"| filter ", "| coverage ", "EJ-32x4", "EJ-16x2"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown lacks %q:\n%s", want, md)
		}
	}
	rep := Report("sweep", groups, axes)
	if !strings.Contains(rep, "EJ-32x4") || !strings.Contains(rep, "coverage") {
		t.Errorf("report lacks expected cells:\n%s", rep)
	}

	buf.Reset()
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"metrics"`) {
		t.Error("JSON render lacks metrics")
	}

	best, err := BestBy(groups, "coverage")
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Labels) != 1 {
		t.Errorf("best group labels %v", best.Labels)
	}
	if _, err := BestBy(groups, "nope"); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{4, 1, 2})
	if st.N != 3 || st.Min != 1 || st.Max != 4 {
		t.Errorf("stats %+v", st)
	}
	if got, want := st.Mean, 7.0/3; got != want {
		t.Errorf("mean %v, want %v", got, want)
	}
	if st.GeoMean <= 1.9 || st.GeoMean >= 2.1 { // cbrt(8) = 2
		t.Errorf("geomean %v, want 2", st.GeoMean)
	}
	if st := Summarize([]float64{1, -2}); st.GeoMean != 0 {
		t.Errorf("geomean over non-positive samples = %v, want 0", st.GeoMean)
	}
	if st := Summarize(nil); st.N != 0 {
		t.Errorf("empty stats %+v", st)
	}
	if _, err := ParseAxes("workload,bogus"); err == nil {
		t.Error("bogus axis accepted")
	}
	if axes, err := ParseAxes(" machine, ,filter "); err != nil || !slices.Equal(axes, []Axis{ByMachine, ByFilter}) {
		t.Errorf("ParseAxes(%q) = %v, %v", " machine, ,filter ", axes, err)
	}
}
