// Command jettysweep runs a declarative configuration sweep — the
// cross-product of workloads × machines × JETTY configurations described
// by a JSON spec file — through the shared experiment engine, and renders
// the aggregated paper metrics. Identical cells are deduplicated by the
// engine's content-addressed cache, so re-running a sweep (or overlapping
// sweeps) recomputes nothing.
//
//	jettysweep sweep.json                     # aligned table by filter (by machine,filter if several machines)
//	jettysweep -by workload,filter sweep.json # finer grouping
//	jettysweep -format md sweep.json          # markdown (EXPERIMENTS.md style)
//	jettysweep -format csv -o cells.csv sweep.json   # raw per-cell metrics
//	jettysweep -format json sweep.json        # full result, machine-readable
//	jettysweep -                              # spec on stdin
//
// A minimal spec:
//
//	{
//	  "workloads": ["Barnes", "Ocean", "WebServer"],
//	  "machines":  [{}, {"cpus": 8}, {"l2_bytes": 2097152, "l2_assoc": 8}],
//	  "filters":   ["EJ-32x4", "IJ-9x4x7", "HJ(IJ-10x4x7,EJ-32x4)"],
//	  "scale":     0.2
//	}
//
// Workload entries of the form "trace:path/to/file.jtrc" replay a
// recorded JTRC trace from disk instead of running a generator.
//
// Exit status: 0 on success, 1 on a runtime error (unreadable spec file,
// unresolvable trace, failed cell), 2 on a usage error (bad flags, or a
// spec that does not decode strictly or validate) raised before any cell
// runs.
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
	"time"

	"jetty/internal/engine"
	"jetty/internal/sim"
	"jetty/internal/sweep"
	"jetty/internal/tables"
)

func main() {
	// Ctrl-C cancels every queued and running cell.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, checks every flag and the spec before any cell runs,
// and writes the rendered result. It returns the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jettysweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: jettysweep [flags] <spec.json | ->")
		fs.PrintDefaults()
	}
	format := fs.String("format", "table", "output format: table, md, csv, cells-csv, json")
	by := fs.String("by", "", "comma-separated grouping axes: workload, machine, filter (default machine,filter for a spec with several machines, else filter)")
	out := fs.String("o", "", "output file (default stdout)")
	workers := fs.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
	quiet := fs.Bool("q", false, "suppress the progress bar")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "jettysweep: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "jettysweep:", err)
		return 1
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	switch *format {
	case "table", "md", "csv", "cells-csv", "json":
	default:
		return usage("unknown format %q", *format)
	}

	specPath := fs.Arg(0)
	in := io.Reader(os.Stdin)
	if specPath != "-" {
		f, err := os.Open(specPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	spec, err := sweep.DecodeSpec(in)
	if err != nil {
		return usage("parsing %s: %v", specPath, err)
	}
	// The paper averages over workloads, never over machines.
	bySet := false
	fs.Visit(func(f *flag.Flag) { bySet = bySet || f.Name == "by" })
	if !bySet {
		*by = "filter"
		if len(spec.Machines) > 1 {
			*by = "machine,filter"
		}
	}
	axes, err := sweep.ParseAxes(*by)
	if err != nil {
		return usage("%v", err)
	}

	log := stderr
	if *quiet {
		log = nil
	}
	res, err := runSweep(ctx, spec, *workers, log)
	if err != nil {
		return fail(err)
	}
	var buf bytes.Buffer
	if err := render(&buf, res, *format, axes); err != nil {
		return fail(err)
	}
	if *out == "" {
		_, err = stdout.Write(buf.Bytes())
	} else {
		err = os.WriteFile(*out, buf.Bytes(), 0o666)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// runSweep runs spec on its own engine, reporting progress to log
// unless it is nil.
func runSweep(ctx context.Context, spec sweep.Spec, workers int, log io.Writer) (*sweep.Result, error) {
	eng := engine.New(engine.Options{Workers: workers})
	defer eng.Close()

	start := time.Now()
	s, err := sweep.Submit(eng, spec, fileTraceResolver, sweep.Submission{})
	if err != nil {
		return nil, err
	}
	if log == nil {
		return s.Wait(ctx)
	}
	name := spec.Name
	if name == "" {
		name = "(unnamed)"
	}
	msg := fmt.Sprintf("sweep %s: %d cells submitted", name, len(s.Cells()))
	if n := s.FusedGroups(); n > 0 {
		msg += fmt.Sprintf(" (%d fused groups)", n)
	}
	fmt.Fprintln(log, msg)

	progress(ctx, s, log)
	res, err := s.Wait(ctx)
	if err != nil {
		return nil, err
	}
	st := s.Status(false)
	fmt.Fprintf(log, "sweep %s: %d cells in %v (%d served from cache)\n",
		name, st.Cells, time.Since(start).Round(time.Millisecond), st.CacheHits)
	return res, nil
}

// fileTraceResolver resolves "trace:<path>" entries as JTRC files on
// disk. Read and decode failures surface verbatim, so a corrupt file is
// distinguishable from a wrong path.
func fileTraceResolver(ref string) (sim.TraceInput, error) {
	data, err := os.ReadFile(ref)
	if err != nil {
		return sim.TraceInput{}, err
	}
	return sim.LoadTrace(ref, data)
}

// progress renders a one-line progress bar to log until the sweep is done.
func progress(ctx context.Context, s *sweep.Sweep, log io.Writer) {
	tick := time.NewTicker(150 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.Done():
			fmt.Fprint(log, "\r\033[K")
			return
		case <-ctx.Done():
			return
		case <-tick.C:
			st := s.Status(false)
			const width = 30
			filled := int(st.Fraction * width)
			bar := strings.Repeat("=", filled) + strings.Repeat(" ", width-filled)
			fmt.Fprintf(log, "\r[%s] %d/%d cells, %.1f%% of %sM refs",
				bar, st.Finished, st.Cells, st.Fraction*100, tables.Millions(st.Total))
		}
	}
}

// render writes the result in the chosen format.
func render(w io.Writer, res *sweep.Result, format string, axes []sweep.Axis) error {
	groups := sweep.GroupBy(res.Metrics, axes...)
	title := "Sweep"
	if res.Spec.Name != "" {
		title = "Sweep " + res.Spec.Name
	}
	switch format {
	case "table":
		_, err := fmt.Fprintln(w, sweep.Report(title, groups, axes))
		return err
	case "md":
		_, err := fmt.Fprintln(w, sweep.Markdown(title, groups, axes))
		return err
	case "csv":
		return sweep.WriteGroupsCSV(w, groups, axes)
	case "cells-csv":
		return sweep.WriteMetricsCSV(w, res.Metrics)
	case "json":
		return sweep.WriteJSON(w, res)
	}
	return fmt.Errorf("unknown format %q", format)
}
