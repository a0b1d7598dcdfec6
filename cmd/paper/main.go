// Command paper regenerates every table and figure of the JETTY paper
// (HPCA 2001) from the reproduction: the analytical models (Table 1,
// Figure 2), the workload characterization (Tables 2-3), filter coverage
// (Figures 4-5), storage (Table 4), energy (Figure 6), and the text's
// side experiments (non-subblocked L2, 8-way SMP, throughput engine, L2
// sensitivity).
//
// Usage:
//
//	paper -exp all                  # everything (default)
//	paper -exp table2 -scale 0.5    # one experiment at half the run length
//	paper -exp fig6 -cpus 8
//
// Experiments: table1 fig2 table2 table3 fig4a fig4b fig5a fig5b table4
// fig6 latency nsb eightway throughput sensitivity all
//
// Every simulated experiment except throughput is a committed sweep spec
// under specs/ (suite, nsb, eightway, sensitivity), run through
// internal/sweep; cmd/jettysweep runs the same files. Reports go to
// stdout; timing and engine diagnostics go to stderr.
//
// Exit status: 0 on success, 1 on a runtime error, 2 on a usage error.
package main

import (
	"context"
	"embed"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"jetty/internal/energy"
	"jetty/internal/engine"
	"jetty/internal/jetty"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/sweep"
	"jetty/internal/tables"
	"jetty/internal/workload"
)

// specFiles holds the sweep specs of the simulated experiments.
//
//go:embed specs/*.json
var specFiles embed.FS

// experiments lists every experiment in -exp all order.
var experiments = []string{"table1", "fig2", "table2", "table3", "fig4a", "fig4b",
	"fig5a", "fig5b", "table4", "fig6", "latency", "nsb", "eightway", "throughput", "sensitivity"}

func main() {
	// Ctrl-C cancels every queued and running simulation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, validates every flag before any simulation, and
// writes the requested reports to stdout. It returns the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run ("+strings.Join(experiments, " ")+" all)")
	scale := fs.Float64("scale", 1.0, "workload access-budget scale factor")
	cpus := fs.Int("cpus", 4, "number of CPUs for the suite experiments")
	samples := fs.Int("samples", 11, "local-hit-rate samples for Figure 2")
	workers := fs.Int("workers", 0, "engine workers running app simulations concurrently (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "paper: "+format+"\n", a...)
		return 2
	}
	if !(*scale > 0 && *scale <= sweep.MaxScale) {
		return usage("-scale %v out of range (0, %d]", *scale, sweep.MaxScale)
	}
	if *cpus < 1 || *cpus > 64 {
		return usage("-cpus %d out of range 1..64", *cpus)
	}
	exps := experiments
	if *exp != "all" {
		if !slices.Contains(experiments, *exp) {
			return usage("unknown experiment %q", *exp)
		}
		exps = []string{*exp}
	}

	// All simulation passes go through one engine: a spec's cells run
	// concurrently on its worker pool, and its content-addressed cache
	// means -exp all never simulates the same (app, machine) pair twice.
	eng := engine.New(engine.Options{Workers: *workers})
	defer eng.Close()
	p := &paper{ctx: ctx, eng: eng, out: stdout, log: stderr,
		scale: *scale, cpus: *cpus, samples: *samples, results: map[string]*sweep.Result{}}
	for _, e := range exps {
		if err := p.report(e); err != nil {
			fmt.Fprintln(stderr, "paper:", err)
			return 1
		}
	}
	if st := eng.Stats(); st.Submitted > 0 {
		fmt.Fprintf(stderr, "[engine: %d submissions, %d simulation passes, %d cache hits, %d coalesced]\n",
			st.Submitted, st.Executed, st.CacheHits, st.Coalesced)
	}
	return 0
}

// paper renders the experiments of one invocation.
type paper struct {
	ctx      context.Context
	eng      *engine.Engine
	out, log io.Writer
	scale    float64
	cpus     int
	samples  int
	results  map[string]*sweep.Result // by spec name
}

// loadSpec decodes and validates the embedded spec specs/<name>.json.
func loadSpec(name string) (sweep.Spec, error) {
	f, err := specFiles.Open("specs/" + name + ".json")
	if err != nil {
		return sweep.Spec{}, err
	}
	defer f.Close()
	spec, err := sweep.DecodeSpec(f)
	if err != nil {
		return sweep.Spec{}, fmt.Errorf("specs/%s.json: %w", name, err)
	}
	return spec, nil
}

// sweep runs the named spec once per invocation at -scale, with the
// suite and nsb machines -cpus wide.
func (p *paper) sweep(name string) (*sweep.Result, error) {
	if res, ok := p.results[name]; ok {
		return res, nil
	}
	spec, err := loadSpec(name)
	if err != nil {
		return nil, err
	}
	spec.Scale = p.scale
	if name == "suite" || name == "nsb" {
		for i := range spec.Machines {
			spec.Machines[i].CPUs = p.cpus
		}
	}
	start := time.Now()
	res, err := sweep.Run(p.ctx, p.eng, spec, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(p.log, "[%s: %d cells x %d filter configs in %v, %d workers]\n",
		name, len(res.Cells), len(res.Spec.Filters), time.Since(start).Round(time.Millisecond), p.eng.Workers())
	p.results[name] = res
	return res, nil
}

// suite returns a one-machine spec's results in workload order, with
// its machine.
func (p *paper) suite(name string) ([]sim.AppResult, smp.Config, error) {
	res, err := p.sweep(name)
	if err != nil {
		return nil, smp.Config{}, err
	}
	results := make([]sim.AppResult, len(res.Cells))
	for i, c := range res.Cells {
		results[i] = c.Result
	}
	return results, res.Cells[0].Cell.Config(), nil
}

// report writes one experiment.
func (p *paper) report(exp string) error {
	w := p.out
	switch exp {
	case "table1":
		fmt.Fprintln(w, sim.Table1Report())
		return nil
	case "fig2":
		fmt.Fprintln(w, sim.Fig2Report(p.samples))
		return nil
	case "nsb":
		return p.summary("nsb", "non-subblocked L2", "paper: 68% of snoops miss; best HJ coverage 68%")
	case "eightway":
		return p.summary("eightway", "8-way SMP", "paper: snoop misses 76.4% of all L2 accesses; coverage 79%")
	case "throughput":
		return p.throughput()
	case "sensitivity":
		return p.sensitivity()
	}

	results, cfg, err := p.suite("suite")
	if err != nil {
		return err
	}
	switch exp {
	case "table2":
		fmt.Fprintln(w, sim.Table2Report(results))
	case "table3":
		fmt.Fprintln(w, sim.Table3Report(results))
	case "fig4a":
		fmt.Fprintln(w, sim.CoverageReport("Figure 4(a): exclude-JETTY coverage",
			results, jetty.Fig4aConfigs, "paper: EJ-32x4 best at 45% average"))
	case "fig4b":
		fmt.Fprintln(w, sim.CoverageReport("Figure 4(b): vector-exclude-JETTY coverage",
			results, jetty.Fig4bConfigs, "paper: vectors improve slightly over EJ; can lose (set-index shift)"))
	case "fig5a":
		fmt.Fprintln(w, sim.CoverageReport("Figure 5(a): include-JETTY coverage",
			results, jetty.Fig5aConfigs, "paper: IJ-10x4x7 best at 57% average, IJ-9x4x7 at 53%"))
	case "fig5b":
		fmt.Fprintln(w, sim.CoverageReport("Figure 5(b): hybrid-JETTY coverage",
			results, jetty.Fig5bConfigs, "paper: (IJ-10x4x7,EJ-32x4) best at 75.6% average; (IJ-8x4x7,EJ-16x2) 65%"))
	case "table4":
		fmt.Fprintln(w, sim.Table4Report(cfg))
	case "fig6":
		fmt.Fprintln(w, sim.Fig6Report(results, cfg))
	case "latency":
		lp := sim.PaperLatency()
		fmt.Fprintln(w, "Snoop latency and tag-port pressure (§2.2 analysis, best hybrid):")
		fmt.Fprintf(w, "  %-14s %18s %18s %12s\n", "app", "base resp (cyc)", "with JETTY (cyc)", "port relief")
		for _, r := range results {
			lr, err := sim.LatencyOf(r, sim.BestHybrid, lp)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-14s %18.1f %18.1f %11.1f%%\n",
				r.Spec.Abbrev, lr.BaseSnoopResponse, lr.WithSnoopResponse, lr.TagPortRelief*100)
		}
		fmt.Fprintf(w, "  worst-case serial penalty: %.2f bus cycles (paper: an insignificant fraction)\n\n",
			sim.Latency(results[0].Counts, energy.FilterCounts{}, lp).WorstCasePenaltyBusCycles)
	}
	return nil
}

// summary writes the cross-cutting summary of one suite spec.
func (p *paper) summary(name, label, paperNote string) error {
	results, _, err := p.suite(name)
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, sim.SummaryReport(results, label))
	fmt.Fprintln(p.out, "  "+paperNote)
	return nil
}

// throughput runs the multiprogrammed workload without and with process
// migration. MigratingThroughput(50_000) is not a library workload, so
// these two runs call the simulator directly instead of going through a
// spec.
func (p *paper) throughput() error {
	filters, err := jetty.ParseAll(jetty.Fig5bConfigs)
	if err != nil {
		return err
	}
	cfg, err := sweep.Machine{CPUs: p.cpus}.Config(filters)
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, "Throughput engine (multiprogrammed), without and with OS process migration:")
	for _, sp := range []workload.Spec{
		workload.Throughput(),
		workload.MigratingThroughput(50_000),
	} {
		res, err := sim.Run(p.ctx, sim.Input{Spec: sp.Scale(p.scale)}, cfg, sim.Plan{}, nil)
		if err != nil {
			return err
		}
		cov, _ := res[0].CoverageOf(sim.BestHybrid)
		fmt.Fprintf(p.out, "  %-22s snoop misses %s of snoops, %s of all; best HJ coverage %s\n",
			sp.Name+":", tables.Pct(res[0].SnoopMissOfSnoops), tables.Pct(res[0].SnoopMissOfAll), tables.Pct(cov))
	}
	fmt.Fprintln(p.out, "  paper §1/§2: throughput engines are JETTY's best case; process")
	fmt.Fprintln(p.out, "  migration is their only (infrequent) source of snoop hits")
	fmt.Fprintln(p.out)
	return nil
}

// sensitivity writes the L2 size/associativity sweep.
func (p *paper) sensitivity() error {
	res, err := p.sweep("sensitivity")
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, sim.SensitivityReport(sensitivityPoints(res), res.Spec.Workloads[0]))
	return nil
}

// sensitivityPoints reads one design point per cell off a one-filter
// sweep, whose metric i therefore belongs to cell i.
func sensitivityPoints(res *sweep.Result) []sim.SensitivityPoint {
	points := make([]sim.SensitivityPoint, len(res.Cells))
	for i, c := range res.Cells {
		l2 := c.Cell.Config().L2
		m := res.Metrics[i]
		points[i] = sim.SensitivityPoint{L2Bytes: l2.SizeBytes, Assoc: l2.Assoc, Coverage: m.Coverage, OverAll: m.SerialOverAll}
	}
	return points
}
