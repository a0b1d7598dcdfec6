package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"jetty/internal/engine"
	"jetty/internal/sim"
	"jetty/internal/sweep"
	"jetty/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report files")

// TestPaperGolden pins paper's text output. Reports are the only thing
// on stdout (timing and engine counters go to stderr), so a golden is
// exactly what `paper <args> > testdata/<name>` writes. Every
// simulation is a pure function of (spec, config), so the comparison is
// byte for byte. Re-baseline, and review the diff, with
//
//	go test ./cmd/paper -run TestPaperGolden -update
//
// The throughput case runs at a larger scale than all: at 0.05 the
// migration never fires, so its two rows would be identical.
func TestPaperGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all.golden", []string{"-exp", "all", "-scale", "0.05"}},
		{"throughput.golden", []string{"-exp", "throughput", "-scale", "0.5"}},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("paper %v: exit %d: %s", tc.args, code, stderr.String())
			}
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("paper %v differs from %s at line %d:\n got: %q\nwant: %q", tc.args, path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("paper %v: %d lines, %s has %d", tc.args, len(gl), path, len(wl))
			}
		})
	}
}

// TestFlagValidation: out-of-range flags exit 2 before any simulation.
// A scale <= 0 would otherwise run full scale (workload.Spec.Scale maps
// it to 1), and a CPU count of 0 would run the 4-way machine (a
// sweep.Machine's 0 means 4).
func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table2", "-scale", "0"},
		{"-exp", "table2", "-scale", "-1"},
		{"-exp", "table2", "-scale", "NaN"},
		{"-exp", "table2", "-cpus", "0"},
		{"-exp", "table2", "-cpus", "65"},
		{"-exp", "table9"},
		{"-bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("paper %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("paper %v wrote a report before rejecting its flags:\n%s", args, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("paper %v: no message on stderr", args)
		}
	}
}

// TestSpecs checks the embedded specs against the experiments they
// stand for: the Table 2 suite with the full figure bank on the 4-way,
// non-subblocked and 8-way machines, and the best hybrid alone on eight
// L2 geometries.
func TestSpecs(t *testing.T) {
	var table2 []string
	for _, sp := range workload.Specs() {
		table2 = append(table2, sp.Name)
	}
	for name, machine := range map[string]sweep.Machine{
		"suite":    {CPUs: 4},
		"nsb":      {CPUs: 4, NSB: true},
		"eightway": {CPUs: 8},
	} {
		spec, err := loadSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec.Workloads, table2) {
			t.Errorf("%s: workloads %v, want the Table 2 suite %v", name, spec.Workloads, table2)
		}
		if len(spec.Filters) != 0 || (spec.FilterMode != "" && spec.FilterMode != sweep.ModeBank) {
			t.Errorf("%s: filters %v in mode %q, want the default bank", name, spec.Filters, spec.FilterMode)
		}
		if !reflect.DeepEqual(spec.Machines, []sweep.Machine{machine}) {
			t.Errorf("%s: machines %+v, want %+v", name, spec.Machines, machine)
		}
	}

	spec, err := loadSpec("sensitivity")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Filters, []string{sim.BestHybrid}) {
		t.Errorf("sensitivity filters %v, want only %s", spec.Filters, sim.BestHybrid)
	}
	if len(spec.Machines) != 8 {
		t.Errorf("sensitivity has %d machines, want 8", len(spec.Machines))
	}
}

// testPaper is a paper run at the given scale on a private engine,
// discarding its output.
func testPaper(t *testing.T, scale float64) *paper {
	t.Helper()
	eng := engine.New(engine.Options{})
	t.Cleanup(eng.Close)
	return &paper{ctx: context.Background(), eng: eng, out: io.Discard, log: io.Discard,
		scale: scale, cpus: 4, results: map[string]*sweep.Result{}}
}

// TestRunSuiteScales: the suite spec runs every Table 2 application at
// exactly its budget times -scale.
func TestRunSuiteScales(t *testing.T) {
	const scale = 0.01
	results, _, err := testPaper(t, scale).suite("suite")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("suite size %d", len(results))
	}
	for i, sp := range workload.Specs() {
		if r := results[i]; r.Spec.Name != sp.Name || r.Refs != sp.Scale(scale).Accesses {
			t.Errorf("result %d: %s ran %d references, want %s with %d", i, r.Spec.Name, r.Refs, sp.Name, sp.Scale(scale).Accesses)
		}
	}
}

// TestSensitivityMonotone verifies the paper's §1 motivation holds in the
// model: at fixed associativity, the best hybrid's energy savings grow
// with L2 size (bigger tags, same filter cost).
func TestSensitivityMonotone(t *testing.T) {
	res, err := testPaper(t, 0.15).sweep("sensitivity")
	if err != nil {
		t.Fatal(err)
	}
	points := sensitivityPoints(res)
	if len(points) != 8 {
		t.Fatalf("want 8 sweep points, got %d", len(points))
	}
	prev := map[int]float64{} // assoc -> last overAll
	for _, p := range points {
		if last, ok := prev[p.Assoc]; ok && p.OverAll <= last {
			t.Errorf("savings not growing with L2 size at assoc %d: %.3f after %.3f",
				p.Assoc, p.OverAll, last)
		}
		prev[p.Assoc] = p.OverAll
	}
	if out := sim.SensitivityReport(points, "Ocean"); !strings.Contains(out, "4096KB") {
		t.Error("report missing sweep points")
	}
}
