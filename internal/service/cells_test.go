package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"jetty/internal/cluster"
	"jetty/internal/engine"
	"jetty/internal/sim"
	"jetty/internal/sweep"
)

// FuzzCellsRequest drives the /v1/cells worker endpoint's request path
// with arbitrary bodies (corpus under testdata/fuzz/, seeded from real
// coordinator requests): the strict decode, Validate, then sweep.Submit
// with the request's selection on a closed engine, so nothing
// simulates. It must never panic. An accepted selection schedules
// exactly the requested cells, in order, and reports them in that order
// in the status the endpoint answers from; an out-of-range or
// non-ascending selection is rejected.
func FuzzCellsRequest(f *testing.F) {
	stored := sim.TraceInput{Name: "fuzz", Digest: "0123abcd", CPUs: 4, Records: 1 << 20}
	traces := func(digest string) (sim.TraceInput, error) {
		if digest != stored.Digest {
			return sim.TraceInput{}, errors.New("not uploaded")
		}
		return stored, nil
	}
	eng := engine.New(engine.Options{Workers: 1})
	eng.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		var req cluster.CellsRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.Spec.Validate() != nil || len(req.Indices) == 0 {
			return // the handler answers 400 before submitting
		}
		all, xerr := req.Spec.Expand(traces)
		s, err := sweep.Submit(eng, req.Spec, traces, sweep.Submission{Cells: req.Indices})
		if xerr != nil || !validSelection(req.Indices, len(all)) {
			if err == nil {
				t.Fatalf("accepted the selection %v of %d cells: %s", req.Indices, len(all), data)
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected a valid selection of %d cells: %v: %s", len(all), err, data)
		}
		cells, status := s.Cells(), s.Status(true).Cell
		if len(cells) != len(req.Indices) || len(status) != len(req.Indices) {
			t.Fatalf("selected %d cells (%d in status) for %d indices: %s", len(cells), len(status), len(req.Indices), data)
		}
		for k, i := range req.Indices {
			if cells[k].Index != i || status[k].Index != i || status[k].Key != cells[k].Key {
				t.Fatalf("position %d holds cell %d (status %d), want %d: %s", k, cells[k].Index, status[k].Index, i, data)
			}
		}
	})
}

// validSelection reports whether indices is a strictly ascending
// selection within [0, n).
func validSelection(indices []int, n int) bool {
	for k, i := range indices {
		if i < 0 || i >= n || (k > 0 && i <= indices[k-1]) {
			return false
		}
	}
	return true
}
