package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jetty/internal/sweep"
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

// writeSpec copies cmd/paper's specs/<name>.json into dir at scale 0.05
// and returns its path.
func writeSpec(t *testing.T, dir, name string) string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "paper", "specs", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := sweep.DecodeSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.05
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJettysweepGolden pins jettysweep's stdout on each of cmd/paper's
// specs at scale 0.05, in every output format. Re-baseline, and review
// the diff, with
//
//	go test ./cmd/jettysweep -run TestJettysweepGolden -update
//
// Under the default -by, the one spec with several machines
// (sensitivity) gets a row per machine; its -format json output is the
// result itself and does not depend on -by.
func TestJettysweepGolden(t *testing.T) {
	for _, tc := range []struct {
		golden, spec string
		flags        []string
	}{
		{"suite", "suite", nil},
		{"nsb", "nsb", nil},
		{"eightway", "eightway", nil},
		{"sensitivity", "sensitivity", nil},
		{"sensitivity-json", "sensitivity", []string{"-format", "json"}},
		{"sensitivity-csv", "sensitivity", []string{"-format", "csv", "-by", "machine,filter"}},
		{"nsb-md", "nsb", []string{"-format", "md"}},
		{"eightway-cells-csv", "eightway", []string{"-format", "cells-csv"}},
		{"suite-by-workload", "suite", []string{"-by", "workload,filter"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			args := append(append([]string{"-q"}, tc.flags...), writeSpec(t, t.TempDir(), tc.spec))
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("jettysweep %v: exit %d: %s", args, code, stderr.String())
			}
			checkGolden(t, tc.golden, stdout.Bytes())
		})
	}
}

// TestExitCodes: usage errors exit 2 and runtime errors exit 1, both
// before the -o file is created, so an existing one survives.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir, "sensitivity")
	file := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	unknownField := file("typo.json", `{"workloads": ["Lu"], "scael": 0.05}`)
	invalid := file("invalid.json", `{"workloads": ["Lu"], "scale": -1}`)
	missingTrace := file("trace.json", `{"workloads": ["trace:`+filepath.Join(dir, "none.jtrc")+`"]}`)
	for _, tc := range []struct {
		code int
		args []string
	}{
		{2, nil},
		{2, []string{spec, spec}},
		{2, []string{"-bogus", spec}},
		{2, []string{"-format", "xml", spec}},
		{2, []string{"-by", "cpu", spec}},
		{2, []string{unknownField}},
		{2, []string{invalid}},
		{1, []string{filepath.Join(dir, "none.json")}},
		{1, []string{missingTrace}},
	} {
		out := file("keep.txt", "not overwritten")
		args := append([]string{"-q", "-o", out}, tc.args...)
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != tc.code {
			t.Errorf("jettysweep %v: exit %d, want %d (%s)", args, code, tc.code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("jettysweep %v: no message on stderr", args)
		}
		if got, err := os.ReadFile(out); err != nil || string(got) != "not overwritten" {
			t.Errorf("jettysweep %v modified its -o file: %q, %v", args, got, err)
		}
	}
}
