package main

import (
	"os"
	"path/filepath"
	"testing"

	"jetty/internal/trace"
)

// TestRecordRejectsBadFlags: a bad -n or -cpus is a usage error raised
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "keep.jtrc")
			const content = "not overwritten"
			if err := os.WriteFile(out, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"-app", "Ocean", "-o", out}, tc.args...)
			err := cmdRecord(args)
			if !isUsage(err) {
				t.Fatalf("cmdRecord(%q) = %v, want a usage error", args, err)
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
	out := filepath.Join(t.TempDir(), "ocean.jtrc")
	if err := cmdRecord([]string{"-app", "Ocean", "-cpus", "3", "-n", "10", "-o", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
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
