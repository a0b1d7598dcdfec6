package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"jetty/internal/energy"
	"jetty/internal/jetty"
	"jetty/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden paper-metrics file")

// The golden regression pins the paper metrics — filter rate (coverage)
// and energy saved — for every workload in the library against one
// representative configuration per JETTY variant. Every simulation is a
// pure function of (spec, config), so the pinned values are exact
// float64s compared with ==: any change to the workload generators, the
// machine, the filters or the energy model fails this test loudly and
// must either be fixed or explicitly re-baselined with
//
//	go test ./internal/sim -run PaperMetricsGolden -update
//
// (and the diff reviewed like any other behavior change).

// goldenConfigs is one representative configuration per variant.
var goldenConfigs = []string{
	"EJ-32x4",               // exclude
	"VEJ-32x4-8",            // vector exclude
	"IJ-9x4x7",              // include
	"HJ(IJ-10x4x7,EJ-32x4)", // hybrid (the paper's best)
}

// goldenScale shortens the budgets; the pinned numbers are still exact
// for this scale.
const goldenScale = 0.05

type goldenFilter struct {
	Filter             string  `json:"filter"`
	Coverage           float64 `json:"coverage"`
	SerialOverSnoops   float64 `json:"energy_serial_over_snoops"`
	SerialOverAll      float64 `json:"energy_serial_over_all"`
	ParallelOverSnoops float64 `json:"energy_parallel_over_snoops"`
	ParallelOverAll    float64 `json:"energy_parallel_over_all"`
}

type goldenApp struct {
	Workload          string         `json:"workload"`
	Refs              uint64         `json:"refs"`
	L1HitRate         float64        `json:"l1_hit_rate"`
	L2LocalHitRate    float64        `json:"l2_local_hit_rate"`
	SnoopMissOfSnoops float64        `json:"snoopmiss_of_snoops"`
	SnoopMissOfAll    float64        `json:"snoopmiss_of_all"`
	Filters           []goldenFilter `json:"filters"`
}

const goldenMetricsPath = "testdata/paper_metrics.json"

// computeGolden measures every library workload against the
// representative bank, on the paper machine, serially (the reference
// path — no engine, no cache, nothing shared between tests).
func computeGolden(t *testing.T) []goldenApp {
	t.Helper()
	cfg, err := bankConfig(4, goldenConfigs)
	if err != nil {
		t.Fatal(err)
	}
	tech := energy.Tech180()
	var out []goldenApp
	for _, sp := range workload.Library() {
		res, err := RunApp(sp.Scale(goldenScale), cfg)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		app := goldenApp{
			Workload:          sp.Name,
			Refs:              res.Refs,
			L1HitRate:         res.L1HitRate,
			L2LocalHitRate:    res.L2LocalHitRate,
			SnoopMissOfSnoops: res.SnoopMissOfSnoops,
			SnoopMissOfAll:    res.SnoopMissOfAll,
		}
		serial := EnergyReductions(res, cfg, tech, energy.SerialTagData)
		parallel := EnergyReductions(res, cfg, tech, energy.ParallelTagData)
		for fi, name := range res.FilterNames {
			app.Filters = append(app.Filters, goldenFilter{
				Filter:             name,
				Coverage:           res.Coverage[fi],
				SerialOverSnoops:   serial[fi].OverSnoops,
				SerialOverAll:      serial[fi].OverAll,
				ParallelOverSnoops: parallel[fi].OverSnoops,
				ParallelOverAll:    parallel[fi].OverAll,
			})
		}
		out = append(out, app)
	}
	return out
}

func TestPaperMetricsGolden(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenMetricsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMetricsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d workloads to %s", len(got), goldenMetricsPath)
	}
	raw, err := os.ReadFile(goldenMetricsPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run PaperMetricsGolden -update` to baseline)", err)
	}
	var want []goldenApp
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("library holds %d workloads, golden file %d — re-baseline with -update", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Workload != w.Workload {
			t.Fatalf("workload %d is %s, golden says %s — re-baseline with -update", i, g.Workload, w.Workload)
			continue
		}
		if g.Refs != w.Refs || g.L1HitRate != w.L1HitRate || g.L2LocalHitRate != w.L2LocalHitRate ||
			g.SnoopMissOfSnoops != w.SnoopMissOfSnoops || g.SnoopMissOfAll != w.SnoopMissOfAll {
			t.Errorf("%s: run statistics drifted:\n got %+v\nwant %+v", g.Workload, g, w)
			continue
		}
		if len(g.Filters) != len(w.Filters) {
			t.Errorf("%s: %d filters, golden has %d", g.Workload, len(g.Filters), len(w.Filters))
			continue
		}
		for fi := range g.Filters {
			if g.Filters[fi] != w.Filters[fi] {
				t.Errorf("%s/%s: paper metrics drifted:\n got %+v\nwant %+v",
					g.Workload, g.Filters[fi].Filter, g.Filters[fi], w.Filters[fi])
			}
		}
	}
}

// TestGoldenCoversEveryVariant guards the golden bank itself: it must
// keep one representative of each variant family, or the regression
// net silently narrows.
func TestGoldenCoversEveryVariant(t *testing.T) {
	var ej, vej, ij, hj bool
	for _, name := range goldenConfigs {
		c := jetty.MustParse(name)
		switch {
		case c.Include != nil && c.Exclude != nil:
			hj = true
		case c.Include != nil:
			ij = true
		case c.Exclude.Vector > 1:
			vej = true
		default:
			ej = true
		}
	}
	if !ej || !vej || !ij || !hj {
		t.Fatalf("golden bank %v misses a variant (EJ %v, VEJ %v, IJ %v, HJ %v)",
			goldenConfigs, ej, vej, ij, hj)
	}
}
