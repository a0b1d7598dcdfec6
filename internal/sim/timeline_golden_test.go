package sim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"jetty/internal/workload"
)

// The timeline golden pins the *time-resolved* paper metrics the same
// way TestPaperMetricsGolden pins the end-of-run aggregates: per-window
// coverage and energy for the two phased workloads — the library entries
// whose whole point is time-varying behaviour — against one
// representative configuration per JETTY variant (the same goldenConfigs
// bank). Every value is an exact float64 compared with ==; re-baseline
// with
//
//	go test ./internal/sim -run TimelineGolden -update
//
// and review the diff like any other behavior change. A drift here with
// TestPaperMetricsGolden green means the *dynamics* changed while the
// totals conserved — exactly the regression class aggregates cannot see.

// goldenTimelineApps are the phased scenarios the timeline golden pins.
var goldenTimelineApps = []string{"PhasedWebServer", "PhasedOLTP"}

// goldenTimelineInterval is sized so the golden runs (goldenScale of the
// phased budgets: 75 000 references) emit ~18 windows — enough to see
// every phase transition, small enough to review by hand.
const goldenTimelineInterval = 4096

type goldenWindow struct {
	StartRef    uint64    `json:"start_ref"`
	EndRef      uint64    `json:"end_ref"`
	Snoops      uint64    `json:"snoops"`
	SnoopMisses uint64    `json:"snoop_misses"`
	EnergyAll   float64   `json:"energy_all_j"`
	EnergySnoop float64   `json:"energy_snoop_j"`
	Coverage    []float64 `json:"coverage"` // per goldenConfigs filter
}

type goldenTimeline struct {
	Workload string         `json:"workload"`
	Interval uint64         `json:"interval"`
	Windows  []goldenWindow `json:"windows"`
}

const goldenTimelinePath = "testdata/timelines.json"

// computeGoldenTimelines runs the phased workloads sampled, serially on
// the reference path (no engine, no cache).
func computeGoldenTimelines(t *testing.T) []goldenTimeline {
	t.Helper()
	cfg, err := bankConfig(4, goldenConfigs)
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenTimeline
	for _, name := range goldenTimelineApps {
		sp, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runSingle(context.Background(), Input{Spec: sp.Scale(goldenScale)}, cfg, Plan{Sample: SampleOptions{Interval: goldenTimelineInterval}}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tl := res.Timeline
		if tl == nil {
			t.Fatalf("%s: sampled run returned no timeline", name)
		}
		g := goldenTimeline{Workload: name, Interval: tl.Interval}
		for i := range tl.Windows {
			w := &tl.Windows[i]
			gw := goldenWindow{
				StartRef:    w.StartRef,
				EndRef:      w.EndRef,
				Snoops:      w.Counts.Snoops,
				SnoopMisses: w.Counts.SnoopMisses,
				EnergyAll:   w.Energy.Total(),
				EnergySnoop: w.Energy.SnoopTotal(),
			}
			for fi := range tl.FilterNames {
				gw.Coverage = append(gw.Coverage, w.Coverage(fi))
			}
			g.Windows = append(g.Windows, gw)
		}
		out = append(out, g)
	}
	return out
}

func TestTimelineGolden(t *testing.T) {
	got := computeGoldenTimelines(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenTimelinePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTimelinePath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d timelines to %s", len(got), goldenTimelinePath)
	}
	raw, err := os.ReadFile(goldenTimelinePath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TimelineGolden -update` to baseline)", err)
	}
	var want []goldenTimeline
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("computed %d timelines, golden file has %d — re-baseline with -update", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Workload != w.Workload || g.Interval != w.Interval {
			t.Errorf("timeline %d is %s@%d, golden says %s@%d — re-baseline with -update",
				i, g.Workload, g.Interval, w.Workload, w.Interval)
			continue
		}
		if len(g.Windows) != len(w.Windows) {
			t.Errorf("%s: %d windows, golden has %d", g.Workload, len(g.Windows), len(w.Windows))
			continue
		}
		for wi := range g.Windows {
			gw, ww := g.Windows[wi], w.Windows[wi]
			same := gw.StartRef == ww.StartRef && gw.EndRef == ww.EndRef &&
				gw.Snoops == ww.Snoops && gw.SnoopMisses == ww.SnoopMisses &&
				gw.EnergyAll == ww.EnergyAll && gw.EnergySnoop == ww.EnergySnoop &&
				len(gw.Coverage) == len(ww.Coverage)
			if same {
				for fi := range gw.Coverage {
					if gw.Coverage[fi] != ww.Coverage[fi] {
						same = false
					}
				}
			}
			if !same {
				t.Errorf("%s window %d drifted:\n got %+v\nwant %+v", g.Workload, wi, gw, ww)
			}
		}
	}
}

// TestTimelineGoldenSeesPhases guards the golden inputs themselves: the
// pinned runs must actually exercise time-varying behaviour — a phased
// workload whose windows all look alike would pin nothing dynamic. The
// warmup-era windows and the steady-era windows must differ materially
// in snoop activity.
func TestTimelineGoldenSeesPhases(t *testing.T) {
	for _, g := range computeGoldenTimelines(t) {
		if len(g.Windows) < 6 {
			t.Fatalf("%s: only %d windows; the golden cannot show dynamics", g.Workload, len(g.Windows))
		}
		third := len(g.Windows) / 3
		var early, late uint64
		for _, w := range g.Windows[:third] {
			early += w.Snoops
		}
		for _, w := range g.Windows[len(g.Windows)-third:] {
			late += w.Snoops
		}
		if early == 0 || late == 0 {
			t.Fatalf("%s: a run era saw no snoops (early %d, late %d)", g.Workload, early, late)
		}
		ratio := float64(late) / float64(early)
		if ratio > 0.67 && ratio < 1.5 {
			t.Errorf("%s: early/late snoop activity nearly identical (ratio %.2f) — phases not visible",
				g.Workload, ratio)
		}
	}
}
