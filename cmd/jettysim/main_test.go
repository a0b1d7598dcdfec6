package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
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

// jettysim runs the command with $TMP in args standing for dir and
// returns its stdout with dir written back as $TMP.
func jettysim(t *testing.T, dir string, args ...string) string {
	t.Helper()
	for i, a := range args {
		args[i] = strings.ReplaceAll(a, "$TMP", dir)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("jettysim %v: exit %d: %s", args, code, stderr.String())
	}
	return strings.ReplaceAll(stdout.String(), dir, "$TMP")
}

var lu = []string{"-app", "Lu", "-accesses", "200000"}

// TestJettysimGolden pins jettysim's stdout on a short Lu run: on the
// paper's machine, non-subblocked, 8-way, with another L2 and filter
// bank, sampled, and captured then replayed. Re-baseline, and review
// the diff, with
//
//	go test ./cmd/jettysim -run TestJettysimGolden -update
func TestJettysimGolden(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"lu", lu},
		{"nsb", slices.Concat(lu, []string{"-nsb"})},
		{"eightway", slices.Concat(lu, []string{"-cpus", "8"})},
		{"l2", slices.Concat(lu, []string{"-l2", "2097152", "-assoc", "8", "-serial=false", "-filters", "EJ-32x4,HJ(IJ-10x4x7,EJ-32x4)"})},
		{"timeline", slices.Concat(lu, []string{"-timeline", "-", "-interval", "50000"})},
		{"capture", slices.Concat(lu, []string{"-capture", "$TMP/lu.jtrc"})},
		{"replay", []string{"-trace", "$TMP/lu.jtrc"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			checkGolden(t, tc.golden, []byte(jettysim(t, dir, tc.args...)))
		})
	}
}

// statistics drops an output's first line (what was captured or
// replayed) and its footprint, which a stored stream does not carry.
func statistics(out string) string {
	_, rest, _ := strings.Cut(out, "\n")
	return regexp.MustCompile(`, footprint [0-9.]+ MB`).ReplaceAllString(rest, "")
}

// TestCaptureReplayRoundTrip: replaying a captured trace, plain or
// gzipped, prints the capturing run's statistics. The gzipped file's
// bytes (and so its digest) depend on the compressor, so it is checked
// against the plain run's goldens rather than pinned itself.
func TestCaptureReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, gz := range []string{"-gzip=false", "-gzip"} {
		captured := jettysim(t, dir, slices.Concat(lu, []string{"-capture", "$TMP/lu.jtrc", gz})...)
		replayed := jettysim(t, dir, "-trace", "$TMP/lu.jtrc")
		if statistics(captured) != statistics(replayed) {
			t.Errorf("%s: replay prints\n%s\nthe capture printed\n%s", gz, replayed, captured)
		}
		for name, got := range map[string]string{"capture": captured, "replay": replayed} {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := got[strings.Index(got, "\n"):], string(want[bytes.IndexByte(want, '\n'):]); g != w {
				t.Errorf("%s %s differs from its golden after the first line:\n%s", gz, name, g)
			}
		}
	}
}

// TestExitCodes: bad flags exit 2 before any simulation runs or any
// output file is created, so an existing -capture file survives;
// runtime errors exit 1.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	keep := filepath.Join(dir, "keep.jtrc")
	corrupt := filepath.Join(dir, "corrupt.jtrc")
	if err := os.WriteFile(corrupt, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	jettysim(t, dir, "-app", "Lu", "-accesses", "1000", "-cpus", "8", "-capture", "$TMP/eight.jtrc")
	eight := filepath.Join(dir, "eight.jtrc")
	for _, tc := range []struct {
		code int
		args []string
	}{
		{2, []string{"-bogus"}},
		{2, []string{"extra"}},
		{2, []string{"-cpus", "0"}},
		{2, []string{"-cpus", "-1"}},
		{2, []string{"-l2", "0"}},
		{2, []string{"-assoc", "0"}},
		{2, []string{"-l2", "3000"}},
		{2, []string{"-app", "NoSuchApp"}},
		{2, []string{"-filters", "XJ-1"}},
		{2, []string{"-trace", corrupt, "-app", "Lu"}},
		{2, []string{"-trace", corrupt, "-accesses", "5"}},
		{2, []string{"-trace", corrupt}}, // with -capture
		{2, []string{"-timeline", "-"}},  // with -capture
		{2, []string{"-capture", "", "-interval", "5"}},
		{1, []string{"-app", "Lu", "-accesses", "1000", "-capture", filepath.Join(dir, "no", "such", "dir")}},
		{1, []string{"-trace", filepath.Join(dir, "none.jtrc"), "-capture", ""}},
		{1, []string{"-trace", corrupt, "-capture", ""}},
		{1, []string{"-trace", eight, "-capture", "", "-cpus", "4"}},
	} {
		if err := os.WriteFile(keep, []byte("not overwritten"), 0o644); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-capture", keep}, tc.args...)
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != tc.code {
			t.Errorf("jettysim %v: exit %d, want %d (%s)", args, code, tc.code, stderr.String())
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("jettysim %v: stdout %q, stderr %q; want only an error", args, stdout.String(), stderr.String())
		}
		if got, err := os.ReadFile(keep); err != nil || string(got) != "not overwritten" {
			t.Errorf("jettysim %v modified an existing output file: %q, %v", args, got, err)
		}
	}
}
