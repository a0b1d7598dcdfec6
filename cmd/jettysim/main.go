// Command jettysim runs one workload on one machine configuration and
// prints the full measurement: hierarchy statistics, bus and snoop
// activity, per-filter coverage and energy reductions. The workload can
// be a library generator (-app), a generator whose reference stream is
// simultaneously recorded to a trace file (-capture), or a previously
// recorded trace replayed from disk (-trace) — the replay reproduces
// the capturing run's statistics exactly.
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
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"jetty/internal/addr"
	"jetty/internal/bus"
	"jetty/internal/energy"
	"jetty/internal/jetty"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/tables"
	"jetty/internal/trace"
	"jetty/internal/workload"
)

func main() {
	app := flag.String("app", "Barnes", "workload: any library name/abbreviation (Table 2 apps, Throughput, WebServer, Database, ...)")
	cpus := flag.Int("cpus", 4, "number of CPUs")
	accesses := flag.Uint64("accesses", 0, "reference budget override (0 = spec default)")
	filters := flag.String("filters", "HJ(IJ-10x4x7,EJ-32x4),HJ(IJ-9x4x7,EJ-32x4),EJ-32x4,IJ-9x4x7",
		"comma-separated JETTY configurations")
	l2size := flag.Int("l2", 1<<20, "L2 size in bytes")
	l2assoc := flag.Int("assoc", 4, "L2 associativity")
	nsb := flag.Bool("nsb", false, "disable L2 subblocking (64-byte coherence units)")
	serial := flag.Bool("serial", true, "serial tag/data L2 access (false = parallel)")
	traceFile := flag.String("trace", "", "replay this recorded trace file instead of generating -app")
	capture := flag.String("capture", "", "record the run's reference stream to this trace file")
	gz := flag.Bool("gzip", false, "gzip-compress the -capture trace")
	timeline := flag.String("timeline", "", "sample the run and write the per-window timeline as CSV to this file (\"-\" = stdout)")
	interval := flag.Uint64("interval", 0, "timeline window width in accesses (0 with -timeline = 10000)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["trace"] && (set["app"] || set["accesses"]) {
		fmt.Fprintln(os.Stderr, "jettysim: -trace replays a recorded stream; -app/-accesses do not apply")
		os.Exit(1)
	}

	if err := run(runOpts{
		app: *app, cpus: *cpus, cpusSet: set["cpus"], accesses: *accesses,
		filters: *filters, l2size: *l2size, l2assoc: *l2assoc, nsb: *nsb,
		serial: *serial, traceFile: *traceFile, capture: *capture, gzip: *gz,
		timeline: *timeline, interval: *interval,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "jettysim:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	app             string
	cpus            int
	cpusSet         bool
	accesses        uint64
	filters         string
	l2size, l2assoc int
	nsb, serial     bool
	traceFile       string
	capture         string
	gzip            bool
	timeline        string
	interval        uint64
}

// sampled reports whether the run records a timeline (-timeline and/or
// -interval given).
func (o runOpts) sampled() bool { return o.timeline != "" || o.interval > 0 }

// sampleOpt builds the sampling options, defaulting the interval.
func (o runOpts) sampleOpt() sim.SampleOptions {
	iv := o.interval
	if iv == 0 {
		iv = 10_000
	}
	return sim.SampleOptions{Interval: iv}
}

func run(o runOpts) error {
	if o.traceFile != "" && o.capture != "" {
		return fmt.Errorf("-trace and -capture are mutually exclusive")
	}
	if o.capture != "" && o.sampled() {
		return fmt.Errorf("-capture and -timeline/-interval are mutually exclusive (capture, then replay sampled)")
	}

	// Replay path: the trace fixes the workload and the machine width.
	var in sim.Input
	cpus := o.cpus
	if o.traceFile != "" {
		data, err := os.ReadFile(o.traceFile)
		if err != nil {
			return err
		}
		// Empty name: the label prefers the trace's recorded app name.
		tin, err := sim.LoadTrace("", data)
		if err != nil {
			return err
		}
		in.Trace = &tin
		if !o.cpusSet {
			cpus = tin.CPUs
		}
		if cpus < tin.CPUs {
			return fmt.Errorf("%s needs %d cpus, -cpus says %d", o.traceFile, tin.CPUs, cpus)
		}
	} else {
		sp, err := workload.Lookup(o.app)
		if err != nil {
			return err
		}
		if o.accesses > 0 {
			sp.Accesses = o.accesses
		}
		in.Spec = sp
	}

	fcs, err := jetty.ParseAll(splitConfigs(o.filters))
	if err != nil {
		return err
	}
	cfg := smp.PaperConfig(cpus).WithFilters(fcs...)
	cfg.L2.SizeBytes = o.l2size
	cfg.L2.Assoc = o.l2assoc
	if o.nsb {
		cfg.L2.Geom = addr.NonSubblocked
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	var plan sim.Plan
	if o.sampled() {
		plan.Sample = o.sampleOpt()
	}
	var f *os.File
	if o.capture != "" {
		if f, err = os.Create(o.capture); err != nil {
			return err
		}
		defer f.Close()
		plan.Capture, err = trace.NewWriter(f, cfg.CPUs, trace.WriterOptions{
			Compress: o.gzip,
			Meta:     trace.Meta{App: in.Spec.Name, Note: "captured by jettysim"},
		})
		if err != nil {
			return err
		}
	}

	// One chunked, cancelable pass: Ctrl-C stops the simulation at the
	// next chunk boundary. A single run needs no worker pool or cache,
	// so this skips the engine that the suite commands use.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	results, err := sim.Run(ctx, in, cfg, plan, nil)
	if err != nil {
		return err
	}
	res := results[0]

	switch {
	case plan.Capture != nil:
		if err := plan.Capture.Close(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("captured %d references to %s\n", plan.Capture.Records(), o.capture)
		printResult(res, cfg, o.serial)
		return nil
	case in.Trace != nil:
		fmt.Printf("replaying %s (%d records, digest %.12s…)\n", o.traceFile, in.Trace.Records, in.Trace.Digest)
	}
	printResult(res, cfg, o.serial)
	return writeTimeline(o.timeline, res)
}

// writeTimeline writes a sampled run's timeline as CSV to path ("-" or
// "" with sampling = stdout) and reports where it went.
func writeTimeline(path string, res sim.AppResult) error {
	tl := res.Timeline
	if tl == nil {
		return nil
	}
	if path == "" || path == "-" {
		fmt.Printf("\ntimeline (%d windows of %d accesses):\n", len(tl.Windows), tl.Interval)
		return tl.WriteCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d timeline windows (interval %d) to %s\n", len(tl.Windows), tl.Interval, path)
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

func printResult(res sim.AppResult, cfg smp.Config, serial bool) {
	fmt.Printf("workload %s on %d-way SMP, %dKB %d-way L2 (%s, %d-byte units)\n",
		res.Spec.Name, cfg.CPUs, cfg.L2.SizeBytes>>10, cfg.L2.Assoc,
		map[bool]string{true: "subblocked", false: "non-subblocked"}[cfg.L2.Geom.UnitsPerBlock > 1],
		cfg.L2.Geom.UnitBytes())

	c := res.Counts
	cp := res.CPU
	fmt.Printf("\nreferences: %d (%d loads, %d stores), footprint %s MB\n",
		res.Refs, cp.Loads, cp.Stores, tables.MB(res.MemoryBytes))
	fmt.Printf("L1: %s hit rate (%d probes), %d writebacks, %d store-forwards\n",
		tables.Pct(res.L1HitRate), cp.L1Probes, cp.L1Writebacks, cp.WBForwards)
	fmt.Printf("L2 local: %s hit rate (%d reads, %d writes)\n",
		tables.Pct(res.L2LocalHitRate), c.LocalReads, c.LocalWrites)

	fmt.Printf("\nbus: %d BusRd, %d BusRdX, %d BusUpgr, %d BusWB\n",
		res.Bus.Count[bus.Read], res.Bus.Count[bus.ReadX], res.Bus.Count[bus.Upgrade], res.Bus.Count[bus.Writeback])
	fmt.Printf("snoops: %d (%d hit, %d miss); remote-hit distribution:",
		c.Snoops, c.SnoopHits, c.SnoopMisses)
	for h, f := range res.RemoteHitFrac {
		fmt.Printf(" %d:%s", h, tables.PctInt(f))
	}
	fmt.Printf("\nsnoop misses: %s of snoops, %s of all L2 accesses\n",
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
	fmt.Println(t.String())
}
