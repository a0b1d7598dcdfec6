// Command jettysim runs one workload on one machine configuration and
// prints the full measurement: hierarchy statistics, bus and snoop
// activity, per-filter coverage and energy reductions. The workload can
// be a library generator (-app), a generator whose reference stream is
// also recorded to a trace file (-capture), or a previously
// recorded trace replayed from disk (-trace) — the replay reproduces
// the capturing run's statistics exactly, except the memory footprint,
// which a stored stream does not carry.
//
// Examples:
//
//	jettysim -app Barnes
//	jettysim -app un -cpus 8 -filters 'HJ(IJ-9x4x7,EJ-32x4),EJ-32x4'
//	jettysim -app Throughput -nsb -serial=false
//	jettysim -app Ocean -accesses 500000 -l2 2097152 -assoc 8
//	jettysim -app WebServer -capture web.jtrc -gzip
//	jettysim -trace web.jtrc -filters EJ-32x4
//	jettysim -app PhasedWebServer -timeline tl.csv -interval 8192
//
// Exit status: 0 on success, 1 on a runtime error (unreadable trace,
// unwritable output, canceled run), 2 on a usage error (bad or
// conflicting flags, unknown workload or filter, invalid machine or
// sampling interval) raised before any simulation runs or any output
// file is created.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"jetty/internal/bus"
	"jetty/internal/energy"
	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/sweep"
	"jetty/internal/tables"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

func main() {
	// Ctrl-C stops the simulation at the next chunk boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, checks every flag before any simulation runs or any
// output file is created, and writes the measurement to stdout. It
// returns the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jettysim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "Barnes", "workload: any library name/abbreviation (Table 2 apps, Throughput, WebServer, Database, ...)")
	cpus := fs.Int("cpus", 4, "number of CPUs")
	accesses := fs.Uint64("accesses", 0, "reference budget override (0 = spec default)")
	filters := fs.String("filters", "HJ(IJ-10x4x7,EJ-32x4),HJ(IJ-9x4x7,EJ-32x4),EJ-32x4,IJ-9x4x7",
		"comma-separated JETTY configurations")
	l2size := fs.Int("l2", 1<<20, "L2 size in bytes")
	l2assoc := fs.Int("assoc", 4, "L2 associativity")
	nsb := fs.Bool("nsb", false, "disable L2 subblocking (64-byte coherence units)")
	serial := fs.Bool("serial", true, "serial tag/data L2 access (false = parallel)")
	traceFile := fs.String("trace", "", "replay this recorded trace file instead of generating -app")
	capture := fs.String("capture", "", "record the run's reference stream to this trace file")
	gz := fs.Bool("gzip", false, "gzip-compress the -capture trace")
	timeline := fs.String("timeline", "", "sample the run and write the per-window timeline as CSV to this file (\"-\" = stdout)")
	interval := fs.Uint64("interval", 0, "timeline window width in accesses (0 with -timeline = 10000)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "jettysim: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "jettysim:", err)
		return 1
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	sampled := *timeline != "" || *interval > 0
	// A zero sweep.Machine field means the paper's default, so each
	// machine flag is checked here: -cpus 0 must not run 4 CPUs.
	switch {
	case fs.NArg() != 0:
		return usage("unexpected arguments %q", fs.Args())
	case *cpus < 1 || *l2size < 1 || *l2assoc < 1:
		return usage("-cpus %d, -l2 %d, -assoc %d: each must be at least 1", *cpus, *l2size, *l2assoc)
	case set["trace"] && (set["app"] || set["accesses"]):
		return usage("-trace replays a recorded stream; -app/-accesses do not apply")
	case *traceFile != "" && *capture != "":
		return usage("-trace and -capture are mutually exclusive")
	case *capture != "" && sampled:
		return usage("-capture and -timeline/-interval are mutually exclusive (capture, then replay sampled)")
	case *interval > 0 && *interval < metrics.MinInterval:
		return usage("-interval %d below the minimum %d", *interval, metrics.MinInterval)
	}
	fcs, err := jetty.ParseAll(splitConfigs(*filters))
	if err != nil {
		return usage("%v", err)
	}

	// Replay: the trace fixes the workload and, unless -cpus says
	// otherwise, the machine width.
	var in sim.Input
	if *traceFile != "" {
		data, err := os.ReadFile(*traceFile)
		if err != nil {
			return fail(err)
		}
		// Empty name: the label prefers the trace's recorded app name.
		tin, err := sim.LoadTrace("", data)
		if err != nil {
			return fail(err)
		}
		in.Trace = &tin
		if !set["cpus"] {
			*cpus = tin.CPUs
		}
	} else {
		if in.Spec, err = workload.Lookup(*app); err != nil {
			return usage("%v", err)
		}
		if *accesses > 0 {
			in.Spec.Accesses = *accesses
		}
	}
	cfg, err := sweep.Machine{CPUs: *cpus, NSB: *nsb, L2Bytes: *l2size, L2Assoc: *l2assoc}.Config(fcs)
	if err != nil {
		return usage("%v", err)
	}

	var plan sim.Plan
	if sampled {
		plan.Sample.Interval = *interval
		if plan.Sample.Interval == 0 {
			plan.Sample.Interval = 10_000
		}
	}
	var f *os.File
	if *capture != "" {
		if f, err = os.Create(*capture); err != nil {
			return fail(err)
		}
		defer f.Close()
	}

	// One chunked, cancelable pass. A single run needs no worker pool
	// or cache, so this skips the engine that the suite commands use.
	results, err := sim.Run(ctx, in, cfg, plan, nil)
	if err != nil {
		return fail(err)
	}
	res := results[0]
	switch {
	case f != nil:
		// The run stepped the generator's first Accesses references;
		// Record writes the same ones, in the same order.
		n, err := trace.Record(f, in.Spec.Source(cfg.CPUs), in.Spec.Accesses, trace.WriterOptions{
			Compress: *gz,
			Meta:     trace.Meta{App: in.Spec.Name, Note: "captured by jettysim"},
		})
		if err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "captured %d references to %s\n", n, *capture)
	case in.Trace != nil:
		fmt.Fprintf(stdout, "replaying %s (%d records, digest %.12s…)\n", *traceFile, in.Trace.Records, in.Trace.Digest)
	}
	printResult(stdout, res, cfg, *serial)
	if err := writeTimeline(stdout, *timeline, res); err != nil {
		return fail(err)
	}
	return 0
}

// writeTimeline writes a sampled run's timeline as CSV to path ("-" or
// "" with sampling = stdout) and reports where it went.
func writeTimeline(stdout io.Writer, path string, res sim.AppResult) error {
	tl := res.Timeline
	if tl == nil {
		return nil
	}
	if path == "" || path == "-" {
		fmt.Fprintf(stdout, "\ntimeline (%d windows of %d accesses):\n", len(tl.Windows), tl.Interval)
		return tl.WriteCSV(stdout)
	}
	var csv bytes.Buffer
	if err := tl.WriteCSV(&csv); err != nil {
		return err
	}
	if err := os.WriteFile(path, csv.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %d timeline windows (interval %d) to %s\n", len(tl.Windows), tl.Interval, path)
	return nil
}

// splitConfigs splits a comma-separated configuration list while keeping
// the commas inside HJ(...,...) intact.
func splitConfigs(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				if part := strings.TrimSpace(s[start:i]); part != "" {
					out = append(out, part)
				}
				start = i + 1
			}
		}
	}
	if part := strings.TrimSpace(s[start:]); part != "" {
		out = append(out, part)
	}
	return out
}

func printResult(w io.Writer, res sim.AppResult, cfg smp.Config, serial bool) {
	fmt.Fprintf(w, "workload %s on %d-way SMP, %dKB %d-way L2 (%s, %d-byte units)\n",
		res.Spec.Name, cfg.CPUs, cfg.L2.SizeBytes>>10, cfg.L2.Assoc,
		map[bool]string{true: "subblocked", false: "non-subblocked"}[cfg.L2.Geom.UnitsPerBlock > 1],
		cfg.L2.Geom.UnitBytes())

	c := res.Counts
	cp := res.CPU
	fmt.Fprintf(w, "\nreferences: %d (%d loads, %d stores), footprint %s MB\n",
		res.Refs, cp.Loads, cp.Stores, tables.MB(res.MemoryBytes))
	fmt.Fprintf(w, "L1: %s hit rate (%d probes), %d writebacks, %d store-forwards\n",
		tables.Pct(res.L1HitRate), cp.L1Probes, cp.L1Writebacks, cp.WBForwards)
	fmt.Fprintf(w, "L2 local: %s hit rate (%d reads, %d writes)\n",
		tables.Pct(res.L2LocalHitRate), c.LocalReads, c.LocalWrites)

	fmt.Fprintf(w, "\nbus: %d BusRd, %d BusRdX, %d BusUpgr, %d BusWB\n",
		res.Bus.Count[bus.Read], res.Bus.Count[bus.ReadX], res.Bus.Count[bus.Upgrade], res.Bus.Count[bus.Writeback])
	fmt.Fprintf(w, "snoops: %d (%d hit, %d miss); remote-hit distribution:",
		c.Snoops, c.SnoopHits, c.SnoopMisses)
	for h, f := range res.RemoteHitFrac {
		fmt.Fprintf(w, " %d:%s", h, tables.PctInt(f))
	}
	fmt.Fprintf(w, "\nsnoop misses: %s of snoops, %s of all L2 accesses\n",
		tables.Pct(res.SnoopMissOfSnoops), tables.Pct(res.SnoopMissOfAll))

	mode := energy.SerialTagData
	if !serial {
		mode = energy.ParallelTagData
	}
	reds := sim.EnergyReductions(res, cfg, energy.Tech180(), mode)
	t := tables.New(fmt.Sprintf("\nJETTY filters (%s tag/data):", mode),
		"config", "coverage", "energy -% (snoops)", "energy -% (all L2)")
	for i, name := range res.FilterNames {
		t.Row(name, tables.Pct(res.Coverage[i]), tables.Pct(reds[i].OverSnoops), tables.Pct(reds[i].OverAll))
	}
	fmt.Fprintln(w, t.String())
}
