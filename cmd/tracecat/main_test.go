package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jetty/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// checkGolden compares got with testdata/<name>.golden byte for byte,
// or rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, %s has %d", len(gl), path, len(wl))
	}
}

// tracecat runs the command with $TMP in args standing for dir and
// returns its stdout with dir written back as $TMP.
func tracecat(t *testing.T, dir string, args ...string) string {
	t.Helper()
	for i, a := range args {
		args[i] = strings.ReplaceAll(a, "$TMP", dir)
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("tracecat %v: exit %d: %s", args, code, stderr.String())
	}
	return strings.ReplaceAll(stdout.String(), dir, "$TMP")
}

// TestTracecatGolden pins every subcommand's stdout on two small
// recorded traces, in order: each step reads what earlier steps wrote.
// Re-baseline, and review the diff, with
//
//	go test ./cmd/tracecat -run TestTracecatGolden -update
func TestTracecatGolden(t *testing.T) {
	dir := t.TempDir()
	for _, step := range []struct {
		golden string
		args   []string
	}{
		{"record", []string{"record", "-app", "Ocean", "-n", "500", "-note", "golden", "-o", "$TMP/ocean.jtrc"}},
		{"record-barnes", []string{"record", "-app", "Barnes", "-n", "300", "-o", "$TMP/barnes.jtrc"}},
		{"inspect", []string{"inspect", "$TMP/ocean.jtrc", "$TMP/barnes.jtrc"}},
		{"stats", []string{"stats", "$TMP/ocean.jtrc"}},
		{"stats-window", []string{"stats", "-window", "700", "$TMP/ocean.jtrc"}},
		{"head", []string{"head", "-n", "12", "$TMP/ocean.jtrc"}},
		{"convert", []string{"convert", "-chunk", "256", "-o", "$TMP/rechunked.jtrc", "$TMP/ocean.jtrc"}},
		{"inspect-converted", []string{"inspect", "$TMP/rechunked.jtrc"}},
		{"merge", []string{"merge", "-o", "$TMP/merged.jtrc", "$TMP/ocean.jtrc", "$TMP/barnes.jtrc"}},
		{"stats-merged", []string{"stats", "$TMP/merged.jtrc"}},
	} {
		checkGolden(t, step.golden, []byte(tracecat(t, dir, step.args...)))
	}
}

// TestGzipRoundTrip: a gzipped trace, recorded or converted, decodes to
// the plain one's records. Its size, and so every bytes/ref figure,
// depends on the compressor, so only decoded output is compared.
func TestGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plain := tracecat(t, dir, "record", "-app", "Ocean", "-n", "500", "-note", "golden", "-o", "$TMP/ocean.jtrc")
	tracecat(t, dir, "record", "-app", "Ocean", "-n", "500", "-note", "golden", "-gzip", "-o", "$TMP/recorded.gz")
	tracecat(t, dir, "convert", "-gzip", "-o", "$TMP/converted.gz", "$TMP/ocean.jtrc")
	tracecat(t, dir, "convert", "-o", "$TMP/back.jtrc", "$TMP/converted.gz")
	if want := "recorded 2000 references of Ocean to $TMP/ocean.jtrc"; !strings.HasPrefix(plain, want) {
		t.Fatalf("record printed %q, want %q...", plain, want)
	}
	stats := tracecat(t, dir, "stats", "$TMP/ocean.jtrc")
	for _, name := range []string{"recorded.gz", "converted.gz"} {
		got := tracecat(t, dir, "stats", "$TMP/"+name)
		if got != strings.ReplaceAll(stats, "ocean.jtrc", name) {
			t.Errorf("stats of %s:\n%s\nwant the plain trace's\n%s", name, got, stats)
		}
		if inspect := tracecat(t, dir, "inspect", "$TMP/"+name); !strings.Contains(inspect, "2000 records in 1 chunks, gzip compression") {
			t.Errorf("inspect of %s: %q", name, inspect)
		}
	}
	a, errA := os.ReadFile(filepath.Join(dir, "ocean.jtrc"))
	b, errB := os.ReadFile(filepath.Join(dir, "back.jtrc"))
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Errorf("gzip and back does not reproduce the plain file (%v, %v)", errA, errB)
	}
}

// TestExitCodes: usage errors exit 2 before any output file is
// created, so an existing one survives; runtime errors exit 1.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	keep := filepath.Join(dir, "keep.jtrc")
	corrupt := filepath.Join(dir, "corrupt.jtrc")
	if err := os.WriteFile(corrupt, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	tracecat(t, dir, "record", "-app", "Ocean", "-n", "10", "-o", "$TMP/four.jtrc")
	tracecat(t, dir, "record", "-app", "Ocean", "-n", "10", "-cpus", "2", "-o", "$TMP/two.jtrc")
	four, two := filepath.Join(dir, "four.jtrc"), filepath.Join(dir, "two.jtrc")
	for _, tc := range []struct {
		code int
		args []string
	}{
		{0, []string{"help"}},
		{0, []string{"record", "-h"}},
		{2, nil},
		{2, []string{"frobnicate"}},
		{2, []string{"record", "-o", keep}},
		{2, []string{"record", "-app", "NoSuchApp", "-o", keep}},
		{2, []string{"record", "-app", "Ocean", "-bogus", "-o", keep}},
		{2, []string{"inspect"}},
		{2, []string{"stats"}},
		{2, []string{"head", four, two}},
		{2, []string{"convert", four}},
		{2, []string{"convert", "-o", keep}},
		{2, []string{"merge", "-o", keep, four}},
		{2, []string{"merge", "-o", keep, four, two}},
		{1, []string{"inspect", corrupt}},
		{1, []string{"stats", filepath.Join(dir, "none.jtrc")}},
		{1, []string{"head", corrupt}},
		{1, []string{"merge", "-o", keep, four, corrupt}},
		{1, []string{"record", "-app", "Ocean", "-o", filepath.Join(dir, "no", "such", "dir")}},
	} {
		if err := os.WriteFile(keep, []byte("not overwritten"), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("tracecat %v: exit %d, want %d (%s)", tc.args, code, tc.code, stderr.String())
		}
		if tc.code != 0 && (stdout.Len() != 0 || stderr.Len() == 0) {
			t.Errorf("tracecat %v: stdout %q, stderr %q; want only an error", tc.args, stdout.String(), stderr.String())
		}
		if got, err := os.ReadFile(keep); err != nil || string(got) != "not overwritten" {
			t.Errorf("tracecat %v modified an existing output file: %q, %v", tc.args, got, err)
		}
	}
}

// TestRecordRejectsBadFlags: a bad -n or -cpus, or an -n whose total
// over the CPUs overflows the record count, is a usage error raised
// before any file is created, so an existing output file survives.
func TestRecordRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"n=0", []string{"-n", "0"}},
		{"cpus=0", []string{"-cpus", "0"}},
		{"cpus=300", []string{"-cpus", "300"}},
		{"cpus=-1", []string{"-cpus", "-1"}},
		{"n*cpus overflows", []string{"-n", "9223372036854775808", "-cpus", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "keep.jtrc")
			const content = "not overwritten"
			if err := os.WriteFile(out, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"record", "-app", "Ocean", "-o", out}, tc.args...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("tracecat %q: exit %d, want 2 (%s)", args, code, stderr.String())
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != content {
				t.Fatalf("the output file was modified: %q", got)
			}
		})
	}
}

// TestRecordWritesNPerCPU: -n bounds every CPU's stream.
func TestRecordWritesNPerCPU(t *testing.T) {
	dir := t.TempDir()
	tracecat(t, dir, "record", "-app", "Ocean", "-cpus", "3", "-n", "10", "-o", "$TMP/ocean.jtrc")
	f, err := os.Open(filepath.Join(dir, "ocean.jtrc"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := trace.Summarize(f)
	if err != nil {
		t.Fatal(err)
	}
	if sum.CPUs != 3 || sum.Records != 30 {
		t.Fatalf("recorded %d CPUs, %d records; want 3, 30", sum.CPUs, sum.Records)
	}
}
