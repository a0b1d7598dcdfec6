// Command tracecat records, inspects and transforms JTRC trace files —
// the collect-once/replay-many workflow of the paper's WWT2 methodology
// (TRACES.md documents the format; README.md has the end-to-end tour).
//
//	tracecat record -app Ocean -n 100000 -o ocean.jtrc     # workload -> trace
//	tracecat inspect ocean.jtrc                            # header + framing, no decode
//	tracecat stats ocean.jtrc                              # full per-CPU statistics
//	tracecat head -n 10 ocean.jtrc                         # first records as text
//	tracecat convert -gzip -o ocean.jtrc.gz ocean.jtrc     # recompress / rechunk
//	tracecat merge -o both.jtrc ocean.jtrc barnes.jtrc     # concatenate traces
//
// Exit status: 0 on success, 1 on a runtime error (unreadable or corrupt
// file, ...), 2 on a usage error (unknown command, bad flags, missing
// arguments).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"jetty/internal/trace"
	"jetty/internal/workload"
)

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: tracecat <command> [flags] [file...]

commands:
  record   -app <workload> [-cpus N] [-n refs] [-gzip] [-note s] [-o file]
           record a library workload to a trace file
  inspect  <file...>   print header and framing summary (no payload decode)
  stats    [-window N] <file...>   decode fully: per-CPU reference statistics
           (-window adds one summary row per N-record window)
  head     [-n N] <file>   print the first N records as text
  convert  [-gzip] [-chunk N] -o <out> <in>   re-encode a trace
  merge    -o <out> <in...>   concatenate traces with equal CPU counts
  help     print this message

run 'tracecat <command> -h' for the command's flags
`)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// commands maps each subcommand to its implementation, which parses
// its own flags and writes its report to stdout.
var commands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"record":  cmdRecord,
	"inspect": cmdInspect,
	"stats":   cmdStats,
	"head":    cmdHead,
	"convert": cmdConvert,
	"merge":   cmdMerge,
}

// run dispatches args to a subcommand and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, ok := commands[args[0]]
	if !ok {
		if slices.Contains([]string{"help", "-h", "-help", "--help"}, args[0]) {
			usage(stdout)
			return 0
		}
		fmt.Fprintf(stderr, "tracecat: unknown command %q\n\n", args[0])
		usage(stderr)
		return 2
	}
	err := cmd(args[1:], stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0 // on -h the FlagSet already printed its defaults
	}
	fmt.Fprintf(stderr, "tracecat %s: %v\n", args[0], err)
	if isUsage(err) {
		return 2
	}
	return 1
}

// usageError marks errors that should exit with status 2.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func isUsage(err error) bool {
	var ue usageError
	return errors.As(err, &ue)
}

// parse runs a subcommand FlagSet, mapping flag errors to usage errors.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	return nil
}

func cmdRecord(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	app := fs.String("app", "", "workload to record (any library name, e.g. Ocean, WebServer, tp)")
	cpus := fs.Int("cpus", 4, "CPUs")
	n := fs.Uint64("n", 100_000, "references per CPU to record")
	gz := fs.Bool("gzip", false, "gzip-compress chunk payloads")
	note := fs.String("note", "", "free-form provenance stored in the trace metadata")
	out := fs.String("o", "trace.jtrc", "output file")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	if *app == "" {
		return usagef("-app is required (try: tracecat record -app Ocean)")
	}
	// Every library generator is infinite, so -n bounds the file.
	if *n < 1 {
		return usagef("-n must be at least 1")
	}
	if *cpus < 1 || *cpus > trace.MaxCPUs {
		return usagef("-cpus %d out of range 1..%d", *cpus, trace.MaxCPUs)
	}
	if *n > math.MaxUint64/uint64(*cpus) {
		return usagef("-n %d on %d CPUs overflows the record count", *n, *cpus)
	}
	sp, err := workload.Lookup(*app)
	if err != nil {
		return usageError{err}
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	opts := trace.WriterOptions{Compress: *gz, Meta: trace.Meta{App: sp.Name, Note: *note}}
	total, err := trace.Record(f, sp.Source(*cpus), *n*uint64(*cpus), opts)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d references of %s to %s (%.2f bytes/ref)\n",
		total, sp.Name, *out, float64(info.Size())/float64(total))
	return nil
}

func cmdInspect(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return usagef("no trace files given")
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sum, serr := trace.Summarize(f)
		info, ierr := f.Stat()
		f.Close()
		if serr != nil {
			return fmt.Errorf("%s: %w", path, serr)
		}
		if ierr != nil {
			return ierr
		}
		compression := "none"
		if sum.Compressed {
			compression = "gzip"
		}
		fmt.Fprintf(stdout, "%s: JTRC v%d, %d CPUs, %d records in %d chunks, %s compression, %.2f bytes/ref\n",
			path, trace.Version, sum.CPUs, sum.Records, sum.Chunks, compression,
			float64(info.Size())/float64(max(sum.Records, 1)))
		if sum.Meta.App != "" {
			fmt.Fprintf(stdout, "  app:  %s\n", sum.Meta.App)
		}
		if sum.Meta.Note != "" {
			fmt.Fprintf(stdout, "  note: %s\n", sum.Meta.Note)
		}
	}
	return nil
}

func cmdStats(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	window := fs.Uint64("window", 0, "also print one summary row per this many records (0 = whole-trace stats only)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return usagef("no trace files given")
	}
	for _, path := range fs.Args() {
		if err := statOne(stdout, path, *window); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// winStat accumulates one window of the windowed stats output.
type winStat struct {
	records uint64
	writes  uint64
	blocks  map[uint64]struct{} // distinct 64B blocks touched in the window
}

func (w *winStat) reset() {
	w.records, w.writes = 0, 0
	if w.blocks == nil {
		w.blocks = make(map[uint64]struct{})
	} else {
		clear(w.blocks) // keep the grown buckets across windows
	}
}

func (w *winStat) row(stdout io.Writer, idx uint64, start uint64) {
	wf := 0.0
	if w.records > 0 {
		wf = float64(w.writes) / float64(w.records)
	}
	fmt.Fprintf(stdout, "  window %4d  [%9d, %9d)  %8d recs  %5.1f%% writes  %7d blocks (%.1f KB)\n",
		idx, start, start+w.records, w.records, wf*100, len(w.blocks), float64(len(w.blocks))*64/1024)
}

func statOne(stdout io.Writer, path string, window uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	cpus := rd.CPUs()
	counts := make([]uint64, cpus)
	writes := make([]uint64, cpus)
	blocks := make(map[uint64]struct{})
	var minA, maxA uint64 = ^uint64(0), 0

	var win winStat
	var winIdx, winStart uint64
	if window > 0 {
		win.reset()
		fmt.Fprintf(stdout, "%s: windowed statistics (%d records per window)\n", path, window)
	}
	for {
		cpu, r, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		counts[cpu]++
		if r.Op == trace.Write {
			writes[cpu]++
		}
		blocks[r.Addr>>6] = struct{}{}
		minA = min(minA, r.Addr)
		maxA = max(maxA, r.Addr)
		if window > 0 {
			win.records++
			if r.Op == trace.Write {
				win.writes++
			}
			win.blocks[r.Addr>>6] = struct{}{}
			if win.records == window {
				win.row(stdout, winIdx, winStart)
				winIdx++
				winStart += win.records
				win.reset()
			}
		}
	}
	if window > 0 && win.records > 0 {
		win.row(stdout, winIdx, winStart)
	}
	total := rd.Records()
	if total == 0 {
		fmt.Fprintf(stdout, "%s: %d CPUs, empty trace\n", path, cpus)
		return nil
	}
	fmt.Fprintf(stdout, "%s: %d CPUs, %d references, span [%#x, %#x], %d distinct 64B blocks (%.1f KB touched)\n",
		path, cpus, total, minA, maxA, len(blocks), float64(len(blocks))*64/1024)
	for cpu := 0; cpu < cpus; cpu++ {
		wf := 0.0
		if counts[cpu] > 0 {
			wf = float64(writes[cpu]) / float64(counts[cpu])
		}
		fmt.Fprintf(stdout, "  cpu%d: %d refs, %.1f%% writes\n", cpu, counts[cpu], wf*100)
	}
	return nil
}

func cmdHead(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("head", flag.ContinueOnError)
	n := fs.Uint64("n", 20, "records to print")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("exactly one trace file required")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	for i := uint64(0); i < *n; i++ {
		cpu, r, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%8d  cpu%-3d %s  %#x\n", i, cpu, r.Op, r.Addr)
	}
	return nil
}

func cmdConvert(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	gz := fs.Bool("gzip", false, "gzip-compress the output")
	chunk := fs.Int("chunk", 0, "records per chunk (0 = default)")
	out := fs.String("o", "", "output file (required)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *out == "" {
		return usagef("-o is required")
	}
	if fs.NArg() != 1 {
		return usagef("exactly one input trace required")
	}
	in, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer in.Close()
	rd, err := trace.NewReader(in)
	if err != nil {
		return err
	}
	return writeOut(stdout, *out, rd.CPUs(), trace.WriterOptions{Compress: *gz, ChunkRecords: *chunk, Meta: rd.Meta()},
		func(w *trace.Writer) error {
			_, err := trace.Append(w, rd)
			return err
		})
}

func cmdMerge(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	gz := fs.Bool("gzip", false, "gzip-compress the output")
	out := fs.String("o", "", "output file (required)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *out == "" {
		return usagef("-o is required")
	}
	if fs.NArg() < 2 {
		return usagef("at least two input traces required")
	}

	// All inputs must agree on the CPU count (sniffed up front so a
	// mismatch fails before the output file is created).
	var cpus int
	var meta trace.Meta
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sum, err := trace.Summarize(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if i == 0 {
			cpus, meta = sum.CPUs, sum.Meta
		} else if sum.CPUs != cpus {
			return usagef("%s has %d CPUs, %s has %d: merge needs equal widths",
				fs.Arg(0), cpus, path, sum.CPUs)
		}
	}

	return writeOut(stdout, *out, cpus, trace.WriterOptions{Compress: *gz, Meta: meta},
		func(w *trace.Writer) error {
			for _, path := range fs.Args() {
				f, err := os.Open(path)
				if err != nil {
					return err
				}
				rd, err := trace.NewReader(f)
				if err == nil {
					_, err = trace.Append(w, rd)
				}
				f.Close()
				if err != nil {
					return fmt.Errorf("%s: %w", path, err)
				}
			}
			return nil
		})
}

// writeOut creates path, streams records into it via fill, and reports.
func writeOut(stdout io.Writer, path string, cpus int, opts trace.WriterOptions, fill func(*trace.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f, cpus, opts)
	if err != nil {
		return err
	}
	if err := fill(w); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d references to %s (%.2f bytes/ref)\n",
		w.Records(), path, float64(info.Size())/float64(max(w.Records(), 1)))
	return nil
}
