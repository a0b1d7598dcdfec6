// Command jettysweep runs a declarative configuration sweep — the
// cross-product of workloads × machines × JETTY configurations described
// by a JSON spec file — through the shared experiment engine, and renders
// the aggregated paper metrics. Identical cells are deduplicated by the
// engine's content-addressed cache, so re-running a sweep (or overlapping
// sweeps) recomputes nothing.
//
//	jettysweep sweep.json                     # aligned table by filter
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
// Exit status: 0 on success, 1 on a runtime error, 2 on a usage error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
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
)

func main() {
	format := flag.String("format", "table", "output format: table, md, csv, cells-csv, json")
	by := flag.String("by", "filter", "comma-separated grouping axes: workload, machine, filter")
	out := flag.String("o", "", "output file (default stdout)")
	workers := flag.Int("workers", 0, "engine workers (0 = GOMAXPROCS)")
	quiet := flag.Bool("q", false, "suppress the progress bar")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: jettysweep [flags] <spec.json | ->")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *format, *by, *out, *workers, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "jettysweep:", err)
		if isUsage(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks errors that should exit with status 2.
type usageError struct{ error }

func isUsage(err error) bool {
	_, ok := err.(usageError)
	return ok
}

func run(specPath, format, by, outPath string, workers int, quiet bool) error {
	raw, err := readSpec(specPath)
	if err != nil {
		return err
	}
	var spec sweep.Spec
	if err := decodeStrict(raw, &spec); err != nil {
		return usageError{fmt.Errorf("parsing %s: %w", specPath, err)}
	}
	axes, err := sweep.ParseAxes(splitList(by))
	if err != nil {
		return usageError{err}
	}
	switch format {
	case "table", "md", "csv", "cells-csv", "json":
	default:
		return usageError{fmt.Errorf("unknown format %q", format)}
	}

	eng := engine.New(engine.Options{Workers: workers})
	defer eng.Close()

	// Ctrl-C cancels every queued and running cell.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	s, err := sweep.Submit(eng, spec, fileTraceResolver, sweep.Submission{})
	if err != nil {
		return err
	}
	if !quiet {
		msg := fmt.Sprintf("sweep %s: %d cells submitted", label(spec), len(s.Cells()))
		if n := s.FusedGroups(); n > 0 {
			msg += fmt.Sprintf(" (%d fused groups)", n)
		}
		fmt.Fprintln(os.Stderr, msg)
	}

	done := make(chan struct{})
	var res *sweep.Result
	var waitErr error
	go func() {
		defer close(done)
		res, waitErr = s.Wait(ctx)
	}()
	progress(ctx, s, done, quiet)
	<-done
	if waitErr != nil {
		return waitErr
	}
	if !quiet {
		st := s.Status(false)
		fmt.Fprintf(os.Stderr, "sweep %s: %d cells in %v (%d served from cache)\n",
			label(spec), st.Cells, time.Since(start).Round(time.Millisecond), st.CacheHits)
	}

	w := io.Writer(os.Stdout)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return render(w, res, format, axes)
}

// label names the sweep in messages.
func label(spec sweep.Spec) string {
	if spec.Name != "" {
		return spec.Name
	}
	return "(unnamed)"
}

// readSpec loads the spec file ("-" = stdin).
func readSpec(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// decodeStrict decodes JSON rejecting unknown fields, so a typo in a
// spec key fails loudly instead of silently sweeping the default.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
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

// progress renders a one-line progress bar to stderr until done closes.
func progress(ctx context.Context, s *sweep.Sweep, done <-chan struct{}, quiet bool) {
	if quiet {
		return
	}
	tick := time.NewTicker(150 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			fmt.Fprint(os.Stderr, "\r\033[K")
			return
		case <-ctx.Done():
			return
		case <-tick.C:
			st := s.Status(false)
			const width = 30
			filled := int(st.Fraction * width)
			bar := strings.Repeat("=", filled) + strings.Repeat(" ", width-filled)
			fmt.Fprintf(os.Stderr, "\r[%s] %d/%d cells, %.1f%% of %s refs",
				bar, st.Finished, st.Cells, st.Fraction*100, millions(st.Total))
		}
	}
}

// millions renders a reference count compactly.
func millions(n uint64) string {
	if n >= 1_000_000 {
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	}
	return fmt.Sprintf("%dk", n/1000)
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

// splitList splits a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
