package service

import (
	"cmp"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"jetty/internal/metrics"
	"jetty/internal/sim"
	"jetty/internal/sweep"
	"jetty/internal/workload"
)

// TestMaxRetainedBoundsWholeRegistry: MaxRetained bounds experiments
// and sweeps together, so finished jobs of both kinds share one budget.
func TestMaxRetainedBoundsWholeRegistry(t *testing.T) {
	_, base := newTestServer(t, Options{MaxRetained: 2})

	req := SubmitRequest{Apps: []string{"Lu"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}
	for i := 0; i < 2; i++ {
		var st ExperimentStatus
		if code := doJSON(t, "POST", base+"/v1/experiments", req, &st); code != http.StatusAccepted {
			t.Fatalf("experiment %d submit code %d", i, code)
		}
		waitDone(t, base, st.ID)
	}
	spec := sweep.Spec{Workloads: []string{"Lu"}, Filters: []string{"EJ-16x2"}, Scale: 0.02}
	var last string
	for i := 0; i < 2; i++ {
		spec.Name = string(rune('a' + i))
		var st SweepStatus
		if code := doJSON(t, "POST", base+"/v1/sweeps", spec, &st); code != http.StatusAccepted {
			t.Fatalf("sweep %d submit code %d", i, code)
		}
		waitSweepDone(t, base, st.ID)
		last = st.ID
	}

	var exps []ExperimentStatus
	var sweeps []SweepStatus
	doJSON(t, "GET", base+"/v1/experiments", nil, &exps)
	doJSON(t, "GET", base+"/v1/sweeps", nil, &sweeps)
	if n := len(exps) + len(sweeps); n > 2 {
		t.Fatalf("registry lists %d experiments + %d sweeps, want at most 2 in all (MaxRetained)", len(exps), len(sweeps))
	}
	if code := doJSON(t, "GET", base+"/v1/sweeps/"+last+"/result", nil, nil); code != http.StatusOK {
		t.Errorf("newest sweep result code %d", code)
	}
}

// TestExperimentCellsAreSweepCells pins the cache contract the
// experiment endpoints rely on: an experiment and the equivalent
// /v1/sweeps spec address the same cells, so the sweep is served
// entirely from the experiment's results. It also checks that each
// endpoint family serves only its own IDs.
func TestExperimentCellsAreSweepCells(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 2})
	info, code := uploadTrace(t, base, recordTestTrace(t, "WebServer", 4, 2000))
	if code != http.StatusCreated {
		t.Fatalf("upload code %d", code)
	}
	filters := []string{"EJ-32x4", "HJ(IJ-9x4x7,EJ-32x4)"}

	for _, tc := range []struct {
		name string
		req  SubmitRequest
		spec sweep.Spec
	}{
		{
			name: "generator",
			req:  SubmitRequest{Apps: []string{"Lu", "ch"}, CPUs: 8, NSB: true, Scale: 0.02, Filters: filters, Interval: 4096},
			spec: sweep.Spec{Workloads: []string{"Lu", "ch"}, Machines: []sweep.Machine{{CPUs: 8, NSB: true}},
				Filters: filters, Scale: 0.02, Interval: 4096},
		},
		{
			name: "trace",
			req:  SubmitRequest{Trace: info.Digest},
			spec: sweep.Spec{Workloads: []string{sweep.TracePrefix + info.Digest}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var exp ExperimentStatus
			if code := doJSON(t, "POST", base+"/v1/experiments", tc.req, &exp); code != http.StatusAccepted {
				t.Fatalf("experiment submit code %d", code)
			}
			if final := waitDone(t, base, exp.ID); final.State != "done" {
				t.Fatalf("experiment ended %s", final.State)
			}

			var sw SweepStatus
			if code := doJSON(t, "POST", base+"/v1/sweeps", tc.spec, &sw); code != http.StatusAccepted {
				t.Fatalf("sweep submit code %d", code)
			}
			final := waitSweepDone(t, base, sw.ID)
			if len(final.Cell) != len(exp.Jobs) {
				t.Fatalf("sweep has %d cells, experiment %d jobs", len(final.Cell), len(exp.Jobs))
			}
			for i, c := range final.Cell {
				if c.Key != exp.Jobs[i].Key {
					t.Errorf("cell %d key %s, experiment job key %s", i, c.Key, exp.Jobs[i].Key)
				}
				if !c.CacheHit {
					t.Errorf("cell %d (%s) not a cache hit after the experiment ran it", i, c.Workload)
				}
			}

			for _, probe := range []struct{ method, path string }{
				{"GET", "/v1/sweeps/" + exp.ID},
				{"DELETE", "/v1/sweeps/" + exp.ID},
				{"GET", "/v1/experiments/" + sw.ID + "/result"},
			} {
				if code := doJSON(t, probe.method, base+probe.path, nil, nil); code != http.StatusNotFound {
					t.Errorf("%s %s = %d, want 404 (other endpoint family)", probe.method, probe.path, code)
				}
			}
		})
	}
}

// FuzzSubmitRequest drives the experiment adapter with arbitrary
// request bodies (corpus under testdata/fuzz/): decode, translate to a
// sweep spec, expand. It must never panic, never expand past the sweep
// cell cap, and must reject every request the experiment bounds forbid.
func FuzzSubmitRequest(f *testing.F) {
	stored := sim.TraceInput{Name: "fuzz", Digest: "0123abcd", CPUs: 4, Records: 1 << 20}
	traces := func(digest string) (sim.TraceInput, error) {
		if digest != stored.Digest {
			return sim.TraceInput{}, errors.New("not uploaded")
		}
		return stored, nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SubmitRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		spec, err := req.sweepSpec(traces)
		var cells []sweep.Cell
		if err == nil {
			cells, err = spec.Expand(traces)
		}
		if why := forbidden(req, stored); why != "" && err == nil {
			t.Fatalf("accepted a request with %s: %s", why, data)
		}
		if len(cells) > sweep.MaxCells {
			t.Fatalf("expanded to %d cells, cap %d: %s", len(cells), sweep.MaxCells, data)
		}
	})
}

// forbidden names the experiment bound req breaks ("" when none): a
// scale out of range, an over-long list, apps together with a trace, or
// a run sampled into more timeline windows than the cap.
func forbidden(req SubmitRequest, stored sim.TraceInput) string {
	switch {
	case req.Scale < 0 || req.Scale > sweep.MaxScale:
		return "scale out of range"
	case len(req.Apps) > maxListLen || len(req.Filters) > maxListLen:
		return "an over-long list"
	case req.Trace != "" && len(req.Apps) > 0:
		return "apps and a trace"
	case req.Interval < metrics.MinInterval:
		return ""
	}
	accesses := []uint64{stored.Records}
	if req.Trace != stored.Digest {
		accesses = nil
		names := req.Apps
		for _, sp := range workload.Specs() {
			if len(req.Apps) == 0 {
				names = append(names, sp.Name)
			}
		}
		for _, name := range names {
			if sp, err := workload.Lookup(name); err == nil {
				accesses = append(accesses, sp.Scale(cmp.Or(req.Scale, 1)).Accesses)
			}
		}
	}
	for _, n := range accesses {
		if n/req.Interval > sweep.MaxWindowsPerCell {
			return "too many timeline windows"
		}
	}
	return ""
}
