package sim

import (
	"strings"
	"testing"

	"jetty/internal/addr"
	"jetty/internal/energy"
	"jetty/internal/jetty"
	"jetty/internal/smp"
	"jetty/internal/workload"
)

// quickSpec returns a fast-running workload for unit tests.
func quickSpec(t *testing.T) workload.Spec {
	t.Helper()
	sp, err := workload.Lookup("Lu")
	if err != nil {
		t.Fatal(err)
	}
	sp.Accesses = 120_000
	return sp
}

func TestRunAppBasics(t *testing.T) {
	cfg := smp.PaperConfig(4).WithFilters(
		jetty.MustParse("HJ(IJ-9x4x7,EJ-32x4)"),
		jetty.MustParse("EJ-16x2"),
	)
	res, err := RunApp(quickSpec(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Refs != 120_000 {
		t.Errorf("Refs = %d", res.Refs)
	}
	if res.L1HitRate <= 0 || res.L1HitRate > 1 {
		t.Errorf("L1HitRate = %v", res.L1HitRate)
	}
	if len(res.RemoteHitFrac) != 4 {
		t.Errorf("remote hit histogram size %d", len(res.RemoteHitFrac))
	}
	if len(res.FilterNames) != 2 || len(res.Coverage) != 2 {
		t.Fatalf("filter results incomplete: %v", res.FilterNames)
	}
	cov, err := res.CoverageOf("HJ(IJ-9x4x7,EJ-32x4)")
	if err != nil {
		t.Fatal(err)
	}
	if cov <= 0 || cov > 1 {
		t.Errorf("hybrid coverage = %v", cov)
	}
	if _, err := res.CoverageOf("nope"); err == nil {
		t.Error("unknown filter should error")
	}
	if _, err := res.FilterCountsOf("EJ-16x2"); err != nil {
		t.Error(err)
	}
	if _, err := res.FilterCountsOf("nope"); err == nil {
		t.Error("unknown filter should error")
	}
}

func TestRunAppValidatesInputs(t *testing.T) {
	sp := quickSpec(t)
	sp.Hot.Frac = 5 // invalid
	if _, err := RunApp(sp, smp.PaperConfig(4)); err == nil {
		t.Error("invalid spec accepted")
	}
	cfg := smp.PaperConfig(4)
	cfg.CPUs = 0
	if _, err := RunApp(quickSpec(t), cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestAllFigureConfigsDeduplicated(t *testing.T) {
	names := AllFigureConfigs()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate config %q", n)
		}
		seen[n] = true
	}
	// Must contain every named config of each figure.
	for _, list := range [][]string{jetty.Fig4aConfigs, jetty.Fig4bConfigs, jetty.Fig5aConfigs, jetty.Fig5bConfigs} {
		for _, n := range list {
			if !seen[n] {
				t.Errorf("figure config %q missing from union", n)
			}
		}
	}
}

func TestL2EnergyOrgMatchesMachine(t *testing.T) {
	cfg := smp.PaperConfig(4)
	org := L2EnergyOrg(cfg)
	if err := org.Validate(); err != nil {
		t.Fatal(err)
	}
	if org.SizeBytes != cfg.L2.SizeBytes || org.Assoc != cfg.L2.Assoc ||
		org.UnitsPerBlock != cfg.L2.Geom.UnitsPerBlock {
		t.Errorf("org mismatch: %+v", org)
	}
}

func TestEnergyReductionsShape(t *testing.T) {
	cfg := smp.PaperConfig(4).WithFilters(
		jetty.MustParse("HJ(IJ-10x4x7,EJ-32x4)"),
		jetty.MustParse("EJ-8x2"),
	)
	res, err := RunApp(quickSpec(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tech := energy.Tech180()
	serial := EnergyReductions(res, cfg, tech, energy.SerialTagData)
	parallel := EnergyReductions(res, cfg, tech, energy.ParallelTagData)
	if len(serial) != 2 || len(parallel) != 2 {
		t.Fatalf("want 2 reductions per mode")
	}
	// The big hybrid must save energy on snoops; over-all must not exceed
	// over-snoops (snoop energy is a subset of total energy).
	if serial[0].OverSnoops <= 0 {
		t.Errorf("hybrid failed to save snoop energy: %v", serial[0].OverSnoops)
	}
	for _, r := range append(serial, parallel...) {
		// Snoop energy is a subset of total energy, so whatever is saved
		// (or lost) dilutes when normalized by the larger total.
		if abs(r.OverAll) > abs(r.OverSnoops)+1e-12 {
			t.Errorf("%s: |over-all| %.3f exceeds |over-snoops| %.3f", r.Filter, r.OverAll, r.OverSnoops)
		}
		if r.With.Jetty <= 0 {
			t.Errorf("%s: filter energy not charged", r.Filter)
		}
		if r.Baseline.Jetty != 0 {
			t.Errorf("%s: baseline has filter energy", r.Filter)
		}
	}
	// Parallel mode must save at least as much snoop-side energy as
	// serial (filtered snoops also skip the concurrent data-way reads).
	if parallel[0].OverAll < serial[0].OverAll {
		t.Errorf("parallel over-all %.3f below serial %.3f", parallel[0].OverAll, serial[0].OverAll)
	}
}

func TestAverage(t *testing.T) {
	if got := Average(nil); got != 0 {
		t.Errorf("Average(nil) = %v", got)
	}
	if got := Average([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Average = %v", got)
	}
}

func TestReportsRenderExpectedContent(t *testing.T) {
	if out := Table1Report(); !strings.Contains(out, "Xeon") || !strings.Contains(out, "512K") {
		t.Errorf("Table1Report missing content:\n%s", out)
	}
	out := Fig2Report(5)
	if !strings.Contains(out, "32-byte lines") || !strings.Contains(out, "64-byte lines") {
		t.Errorf("Fig2Report missing panels:\n%s", out)
	}
	if !strings.Contains(out, "headline point") {
		t.Error("Fig2Report missing headline point")
	}

	cfg := smp.PaperConfig(4).WithFilters(jetty.MustParse("HJ(IJ-10x4x7,EJ-32x4)"), jetty.MustParse("EJ-32x4"))
	sp := quickSpec(t)
	res, err := RunApp(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := []AppResult{res}

	if out := Table2Report(results); !strings.Contains(out, "Lu") || !strings.Contains(out, "L1 hit") {
		t.Errorf("Table2Report:\n%s", out)
	}
	if out := Table3Report(results); !strings.Contains(out, "AVERAGE") {
		t.Errorf("Table3Report:\n%s", out)
	}
	if out := CoverageReport("t", results, []string{"EJ-32x4"}, "note"); !strings.Contains(out, "EJ-32x4") || !strings.Contains(out, "note") {
		t.Errorf("CoverageReport:\n%s", out)
	}
	// Unknown config renders n/a instead of failing.
	if out := CoverageReport("t", results, []string{"EJ-8x4"}, ""); !strings.Contains(out, "n/a") {
		t.Errorf("CoverageReport should mark missing configs:\n%s", out)
	}
	if out := Table4Report(cfg); !strings.Contains(out, "IJ-10x4x7") || !strings.Contains(out, "cnt width 14") {
		t.Errorf("Table4Report:\n%s", out)
	}
	if out := Fig6Report(results, cfg); !strings.Contains(out, "Figure 6(a)") || !strings.Contains(out, "Figure 6(d)") {
		t.Errorf("Fig6Report:\n%s", out)
	}
	if out := SummaryReport(results, "test"); !strings.Contains(out, "best HJ") {
		t.Errorf("SummaryReport:\n%s", out)
	}
}

// TestOnePassEqualsIsolatedPass verifies the core one-pass-many-filters
// methodology: a filter measured alongside 20 others reports exactly the
// same coverage as the same filter measured alone (filters are passive
// observers; the protocol is independent of them).
func TestOnePassEqualsIsolatedPass(t *testing.T) {
	sp := quickSpec(t)
	target := "HJ(IJ-9x4x7,EJ-32x4)"

	all, err := jetty.ParseAll(AllFigureConfigs())
	if err != nil {
		t.Fatal(err)
	}
	resMany, err := RunApp(sp, smp.PaperConfig(4).WithFilters(all...))
	if err != nil {
		t.Fatal(err)
	}
	resOne, err := RunApp(sp, smp.PaperConfig(4).WithFilters(jetty.MustParse(target)))
	if err != nil {
		t.Fatal(err)
	}
	covMany, _ := resMany.CoverageOf(target)
	covOne, _ := resOne.CoverageOf(target)
	if covMany != covOne {
		t.Errorf("coverage differs: %v in bank vs %v alone", covMany, covOne)
	}
	fcMany, _ := resMany.FilterCountsOf(target)
	fcOne, _ := resOne.FilterCountsOf(target)
	if fcMany != fcOne {
		t.Errorf("filter counts differ:\nbank:  %+v\nalone: %+v", fcMany, fcOne)
	}
	if resMany.Counts != resOne.Counts {
		t.Error("system counts depend on the filter bank (they must not)")
	}
}

// TestSubblockingIncreasesSnoopMisses reproduces the §4.2 parenthetical:
// the subblocked machine shows a higher snoop-miss fraction than the
// non-subblocked one (sibling-subblock snoops miss under a present tag).
func TestSubblockingIncreasesSnoopMisses(t *testing.T) {
	sp, err := workload.Lookup("Em3d") // streaming: strong subblock effect
	if err != nil {
		t.Fatal(err)
	}
	sp.Accesses = 200_000
	sb, err := RunApp(sp, smp.PaperConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	nsbCfg := smp.PaperConfig(4)
	nsbCfg.L2.Geom = addr.NonSubblocked
	nsb, err := RunApp(sp, nsbCfg)
	if err != nil {
		t.Fatal(err)
	}
	if sb.SnoopMissOfAll <= nsb.SnoopMissOfAll {
		t.Errorf("subblocked snoop-miss share %.3f should exceed non-subblocked %.3f",
			sb.SnoopMissOfAll, nsb.SnoopMissOfAll)
	}
}

// TestEightWayIncreasesSnoopShare reproduces the §4.3 observation that an
// 8-way SMP sees a larger snoop-miss share of all L2 accesses than 4-way.
func TestEightWayIncreasesSnoopShare(t *testing.T) {
	sp := quickSpec(t)
	four, err := RunApp(sp, smp.PaperConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunApp(sp, smp.PaperConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if eight.SnoopMissOfAll <= four.SnoopMissOfAll {
		t.Errorf("8-way share %.3f should exceed 4-way %.3f",
			eight.SnoopMissOfAll, four.SnoopMissOfAll)
	}
}

// TestMigrationCreatesRareSnoopHits reproduces the paper's §2 narrative:
// a pure throughput engine has essentially zero remote snoop hits; adding
// OS process migration introduces some (the migrated process pulls its
// data out of the previous CPU's caches) while staying miss-dominated.
func TestMigrationCreatesRareSnoopHits(t *testing.T) {
	cfg := smp.PaperConfig(4)
	pure, err := RunApp(workload.Throughput().Scale(0.4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mig, err := RunApp(workload.MigratingThroughput(20_000).Scale(0.4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pure.Counts.SnoopHits != 0 {
		t.Errorf("pure throughput engine had %d snoop hits, want 0", pure.Counts.SnoopHits)
	}
	if mig.Counts.SnoopHits == 0 {
		t.Error("migration produced no snoop hits")
	}
	if mig.SnoopMissOfSnoops < 0.8 {
		t.Errorf("migration hits should stay infrequent: miss rate %.2f", mig.SnoopMissOfSnoops)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
