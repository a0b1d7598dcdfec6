package sim

import (
	"fmt"
	"strings"

	"jetty/internal/analytic"
	"jetty/internal/energy"
	"jetty/internal/jetty"
	"jetty/internal/smp"
	"jetty/internal/tables"
)

// AllFigureConfigs returns the union of every JETTY configuration the
// paper's figures evaluate, deduplicated in first-appearance order. One
// simulation pass with this bank yields Figures 4(a), 4(b), 5(a), 5(b)
// and 6 simultaneously.
func AllFigureConfigs() []string {
	seen := map[string]bool{}
	var out []string
	for _, list := range [][]string{jetty.Fig4aConfigs, jetty.Fig4bConfigs, jetty.Fig5aConfigs, jetty.Fig5bConfigs} {
		for _, n := range list {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// BestHybrid is the paper's best hybrid configuration (Figure 5(b)), the
// representative filter of the summary, latency, throughput and
// sensitivity experiments.
const BestHybrid = "HJ(IJ-10x4x7,EJ-32x4)"

// Table1Report reproduces Table 1: the Xeon power breakdown with the
// derived percentage columns recomputed.
func Table1Report() string {
	t := tables.New("Table 1: Xeon peak power breakdown (datasheet watts, derived fractions)",
		"L2 size", "Core W", "L2 W", "L2 pads W", "L2 %", "L2 w/o pads %")
	for _, r := range analytic.XeonTable() {
		t.Row(fmt.Sprintf("%dK", r.L2SizeKB), r.CoreWatts, r.L2Watts, r.PadWatts,
			tables.PctInt(r.L2Fraction()), tables.PctInt(r.L2FractionNoPads()))
	}
	t.Note("paper: 14/16, 23/28, 34/43 percent")
	return t.String()
}

// Fig2Report reproduces Figure 2: snoop-miss tag energy as a fraction of
// all L2 energy, vs local hit rate, one curve per remote hit rate, for 32-
// and 64-byte lines.
func Fig2Report(samples int) string {
	var b strings.Builder
	tech := energy.Tech180()
	for _, blockBytes := range []int{32, 64} {
		fig := analytic.ComputeFigure2(tech, blockBytes, samples)
		fmt.Fprintf(&b, "Figure 2(%s): %d-byte lines — SnoopMissE vs local hit rate\n",
			map[int]string{32: "a", 64: "b"}[blockBytes], blockBytes)
		b.WriteString("  local hit: ")
		for _, l := range fig.LocalHitRates {
			fmt.Fprintf(&b, " %5.2f", l)
		}
		b.WriteByte('\n')
		for i, r := range fig.RemoteHitRates {
			fmt.Fprintf(&b, "  R=%3.0f%%:    ", r*100)
			for _, y := range fig.Series[i] {
				fmt.Fprintf(&b, " %4.1f%%", y*100)
			}
			b.WriteByte('\n')
		}
		pt := analytic.PaperParams(tech, blockBytes).Eval(0.5, 0.1)
		fmt.Fprintf(&b, "  headline point (L=0.5, R=0.1): %.1f%% (paper quotes ~33%% for 32B)\n\n",
			pt.SnoopMissE*100)
	}
	return b.String()
}

// Table2Report reproduces Table 2: per-application run characteristics.
func Table2Report(results []AppResult) string {
	t := tables.New("Table 2: applications (simulated)",
		"App", "Ab", "Accesses(M)", "MA(MB)", "L1 hit", "L2 hit", "L2 snoop accesses(M)")
	for _, r := range results {
		t.Row(r.Spec.Name, r.Spec.Abbrev, tables.Millions(r.Refs), tables.MB(r.MemoryBytes),
			tables.Pct(r.L1HitRate), tables.Pct(r.L2LocalHitRate), tables.Millions(r.Counts.Snoops))
	}
	t.Note("paper L1 range 76.5–99.6%%, L2 range 23.3–82.5%%")
	return t.String()
}

// Table3Report reproduces Table 3: the remote-hit distribution and
// snoop-miss fractions.
func Table3Report(results []AppResult) string {
	n := len(results[0].RemoteHitFrac)
	headers := []string{"App"}
	for h := 0; h < n; h++ {
		headers = append(headers, fmt.Sprintf("%d", h))
	}
	headers = append(headers, "% of snoops", "% of all accesses")
	t := tables.New("Table 3: snoop hit distribution and snoop-miss fractions", headers...)

	avgHist := make([]float64, n)
	var avgOfSnoops, avgOfAll float64
	for _, r := range results {
		row := []any{r.Spec.Name}
		for h := 0; h < n; h++ {
			row = append(row, tables.PctInt(r.RemoteHitFrac[h]))
			avgHist[h] += r.RemoteHitFrac[h] / float64(len(results))
		}
		row = append(row, tables.PctInt(r.SnoopMissOfSnoops), tables.PctInt(r.SnoopMissOfAll))
		avgOfSnoops += r.SnoopMissOfSnoops / float64(len(results))
		avgOfAll += r.SnoopMissOfAll / float64(len(results))
		t.Row(row...)
	}
	row := []any{"AVERAGE"}
	for h := 0; h < n; h++ {
		row = append(row, tables.Pct(avgHist[h]))
	}
	row = append(row, tables.Pct(avgOfSnoops), tables.Pct(avgOfAll))
	t.Row(row...)
	t.Note("paper averages: 79.6/15.6/2.6/1.0, 91%% of snoops, 55%% of all accesses")
	return t.String()
}

// CoverageReport renders one coverage figure (4a/4b/5a/5b): per-app
// coverage of each configuration plus the suite average.
func CoverageReport(title string, results []AppResult, configNames []string, paperNote string) string {
	headers := append([]string{"App"}, configNames...)
	t := tables.New(title, headers...)
	avg := make([]float64, len(configNames))
	for _, r := range results {
		row := []any{r.Spec.Abbrev}
		for i, name := range configNames {
			cov, err := r.CoverageOf(name)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			row = append(row, tables.Pct(cov))
			avg[i] += cov / float64(len(results))
		}
		t.Row(row...)
	}
	row := []any{"AVG"}
	for _, a := range avg {
		row = append(row, tables.Pct(a))
	}
	t.Row(row...)
	if paperNote != "" {
		t.Note("%s", paperNote)
	}
	return t.String()
}

// Table4Report reproduces Table 4: IJ storage requirements for the
// machine's L2 (counter width sized pessimistically for its block count).
func Table4Report(cfg smp.Config) string {
	cntBits := jetty.CntBitsFor(cfg.L2.Blocks())
	t := tables.New(fmt.Sprintf("Table 4: include-JETTY storage (cnt width %d bits)", cntBits),
		"IJ", "p-bit array (bits)", "cnt array org", "total bytes")
	for _, name := range jetty.Table4Configs {
		c := jetty.MustParse(name)
		row := c.Include.Storage(cntBits)
		t.Row(name, row.PBitOrg, row.CntOrg, row.TotalBytes())
	}
	t.Note("paper lists 7168/3548/1792/869/448 bytes (counter storage, with typos; see EXPERIMENTS.md)")
	return t.String()
}

// Fig6Row is one application's energy reductions for one configuration.
type Fig6Row struct {
	App        string
	OverSnoops float64
	OverAll    float64
}

// Fig6Data computes the Figure 6 series for every Fig6 configuration in
// both access modes. The returned map is keyed by config name, then mode.
func Fig6Data(results []AppResult, cfg smp.Config) map[string]map[energy.Mode][]Fig6Row {
	tech := energy.Tech180()
	out := map[string]map[energy.Mode][]Fig6Row{}
	for _, mode := range []energy.Mode{energy.SerialTagData, energy.ParallelTagData} {
		for _, r := range results {
			for _, red := range EnergyReductions(r, cfg, tech, mode) {
				if out[red.Filter] == nil {
					out[red.Filter] = map[energy.Mode][]Fig6Row{}
				}
				out[red.Filter][mode] = append(out[red.Filter][mode], Fig6Row{
					App: r.Spec.Abbrev, OverSnoops: red.OverSnoops, OverAll: red.OverAll,
				})
			}
		}
	}
	return out
}

// Fig6Report reproduces Figure 6: energy reduction over snoop accesses and
// over all L2 accesses, serial and parallel tag/data.
func Fig6Report(results []AppResult, cfg smp.Config) string {
	data := Fig6Data(results, cfg)
	var b strings.Builder
	panel := func(title string, mode energy.Mode, overAll bool) {
		fmt.Fprintf(&b, "%s\n", title)
		apps := ""
		for _, r := range results {
			apps += fmt.Sprintf(" %6.6s", r.Spec.Abbrev)
		}
		fmt.Fprintf(&b, "  %-24s%s    AVG\n", "config", apps)
		for _, name := range jetty.Fig6Configs {
			rows := data[name][mode]
			if rows == nil {
				continue
			}
			fmt.Fprintf(&b, "  %-24s", name)
			sum := 0.0
			for _, row := range rows {
				v := row.OverSnoops
				if overAll {
					v = row.OverAll
				}
				sum += v
				fmt.Fprintf(&b, " %5.1f%%", v*100)
			}
			fmt.Fprintf(&b, "  %5.1f%%\n", sum/float64(len(rows))*100)
		}
	}
	panel("Figure 6(a): energy reduction over snoop accesses, serial tag/data", energy.SerialTagData, false)
	panel("Figure 6(b): energy reduction over ALL L2 accesses, serial tag/data", energy.SerialTagData, true)
	panel("Figure 6(c): energy reduction over snoop accesses, parallel tag/data", energy.ParallelTagData, false)
	panel("Figure 6(d): energy reduction over ALL L2 accesses, parallel tag/data", energy.ParallelTagData, true)
	b.WriteString("  paper: (a) best HJ 56% avg; (b) 29-30%; (c) 63%; (d) 41%\n")
	return b.String()
}

// SummaryReport prints the cross-cutting summary numbers the paper calls
// out in the text (§4.2/§4.3/§6) for one suite run.
func SummaryReport(results []AppResult, label string) string {
	var smOfAll, smOfSnoops, bestHJ float64
	for _, r := range results {
		smOfAll += r.SnoopMissOfAll / float64(len(results))
		smOfSnoops += r.SnoopMissOfSnoops / float64(len(results))
		if cov, err := r.CoverageOf(BestHybrid); err == nil {
			bestHJ += cov / float64(len(results))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Summary (%s):\n", label)
	fmt.Fprintf(&b, "  snoop misses as %% of snoop accesses: %s\n", tables.Pct(smOfSnoops))
	fmt.Fprintf(&b, "  snoop misses as %% of all L2 accesses: %s\n", tables.Pct(smOfAll))
	fmt.Fprintf(&b, "  best HJ (IJ-10x4x7, EJ-32x4) coverage: %s\n", tables.Pct(bestHJ))
	return b.String()
}

// SensitivityPoint is one machine design point of the L2 sensitivity sweep.
type SensitivityPoint struct {
	L2Bytes  int
	Assoc    int
	Coverage float64 // best hybrid
	OverAll  float64 // serial-mode energy reduction over all L2 accesses
}

// SensitivityReport renders the sweep.
func SensitivityReport(points []SensitivityPoint, appName string) string {
	t := tables.New(fmt.Sprintf("L2 design sensitivity (%s, best hybrid, serial tag/data)", appName),
		"L2 size", "assoc", "coverage", "energy -% (all L2)")
	for _, p := range points {
		t.Row(fmt.Sprintf("%dKB", p.L2Bytes>>10), p.Assoc, tables.Pct(p.Coverage), tables.Pct(p.OverAll))
	}
	t.Note("paper §1: tag-related savings grow in importance with L2 size/associativity")
	return t.String()
}
