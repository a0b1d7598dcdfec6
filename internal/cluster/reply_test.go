package cluster

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"jetty/internal/energy"
	"jetty/internal/engine"
	"jetty/internal/metrics"
	"jetty/internal/sim"
	"jetty/internal/sweep"
)

// widen sets every number reachable from v to the value with the
// longest JSON encoding of its kind. Strings keep their value.
func widen(v reflect.Value) {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(math.MaxUint64 >> (64 - v.Type().Bits()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(math.MinInt64 >> (64 - v.Type().Bits()))
	case reflect.Float32, reflect.Float64:
		// The longest shortest-form float64 encoding: 17 significant
		// digits in the fixed notation encoding/json uses down to 1e-6.
		v.SetFloat(-1.2345678901234567e-6)
	case reflect.Pointer:
		if !v.IsNil() {
			widen(v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				widen(v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			widen(v.Index(i))
		}
	}
}

// widestOutcome is cell's outcome with the given number of windows, at
// its widest: every counter widened, the spec and names as the worker
// encodes them.
func widestOutcome(c sweep.Cell, windows int) CellOutcome {
	cfg := c.Config()
	nf := len(cfg.Filters)
	names := make([]string, nf)
	for i, f := range cfg.Filters {
		names[i] = f.Name()
	}
	oc := CellOutcome{
		Key:         c.Key,
		Disposition: engine.DispositionCoalesced,
		Result: sim.AppResult{
			RemoteHitFrac: make([]float64, cfg.CPUs),
			FilterNames:   names,
			FilterCounts:  make([]energy.FilterCounts, nf),
			Coverage:      make([]float64, nf),
			Timeline:      &metrics.Timeline{FilterNames: names, Windows: make([]metrics.Window, windows)},
		},
	}
	oc.Result.Bus.RemoteHits = make([]uint64, cfg.CPUs)
	for i := range oc.Result.Timeline.Windows {
		oc.Result.Timeline.Windows[i].Filters = make([]energy.FilterCounts, nf)
	}
	widen(reflect.ValueOf(&oc).Elem())
	oc.Result.Spec = c.Label()
	return oc
}

// encodedLen is the length of v's JSON encoding.
func encodedLen(t *testing.T, v any) int64 {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(b))
}

// TestReplyBoundCoversWidestReply encodes, for every unit of several
// sampled sweeps, the widest reply a worker could honestly send — every
// counter at its widest, every window a run can emit — and checks it
// fits the unit's replyBound: a filter bank on an 8-CPU machine, a
// phased spec, and one filter per cell.
func TestReplyBoundCoversWidestReply(t *testing.T) {
	specs := []sweep.Spec{
		{Workloads: []string{"Lu"}, Machines: []sweep.Machine{{CPUs: 8}}, Scale: 0.002, Interval: 256},
		{Workloads: []string{"PhasedOLTP"}, Filters: []string{"EJ-32x4", "HJ(IJ-9x4x7,EJ-32x4)"}, Scale: 0.002, Interval: 500},
		{Workloads: []string{"Barnes", "Ocean"}, Filters: []string{"EJ-16x2", "IJ-8x4x7", "EJ-64x4"}, FilterMode: sweep.ModeEach, Scale: 0.001, Interval: 64},
	}
	for _, spec := range specs {
		cells, err := spec.Expand(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, unit := range sweep.PlanUnits(cells) {
			resp := CellsResponse{Worker: "worker-0:8080"}
			for _, i := range unit {
				windows := int(cells[i].Total()/spec.Interval) + 2
				resp.Cells = append(resp.Cells, widestOutcome(cells[i], windows))
			}
			got, bound := encodedLen(t, resp), replyBound(unitCells(cells, unit), spec.Interval)
			if got > bound {
				t.Errorf("%s unit %v: widest reply is %d bytes, bound %d", spec.Workloads[0], unit, got, bound)
			}
		}
	}
}

// TestReplyBoundAdmitsLargeSampledUnit checks the bound for a unit of
// 17 cells at the per-cell window cap, one filter each: a reply a fixed
// 256 MiB cap would have cut off. The widest reply is summed from the
// encodings of one widest outcome without windows and one widest
// window, instead of being built in memory.
func TestReplyBoundAdmitsLargeSampledUnit(t *testing.T) {
	const interval = metrics.MinInterval
	filters := []string{
		"EJ-16x2", "EJ-16x4", "EJ-32x2", "EJ-32x4", "EJ-64x2", "EJ-64x4",
		"IJ-8x4x7", "IJ-9x4x7", "IJ-10x4x7", "IJ-8x2x7", "IJ-9x2x7", "IJ-10x2x7",
		"HJ(IJ-8x4x7,EJ-32x4)", "HJ(IJ-9x4x7,EJ-32x4)", "HJ(IJ-10x4x7,EJ-32x4)",
		"HJ(IJ-9x4x7,EJ-16x2)", "HJ(IJ-10x4x7,EJ-64x4)",
	}
	spec := sweep.Spec{
		Workloads:  []string{"Lu"},
		Filters:    filters,
		FilterMode: sweep.ModeEach,
		Scale:      float64(interval*sweep.MaxWindowsPerCell) / 1_000_000, // Lu runs 1M references at scale 1
		Interval:   interval,
	}
	cells, err := spec.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	units := sweep.PlanUnits(cells)
	if len(units) != 1 || len(units[0]) != len(filters) {
		t.Fatalf("planned units %v, want one of %d cells", units, len(filters))
	}
	unit := units[0]
	if w := cells[0].Total() / interval; w != sweep.MaxWindowsPerCell {
		t.Fatalf("cells run %d windows, want the cap %d", w, sweep.MaxWindowsPerCell)
	}

	widest := encodedLen(t, CellsResponse{Worker: "worker-0:8080"})
	for _, i := range unit {
		windows := int64(cells[i].Total()/interval) + 2
		window := encodedLen(t, widestOutcome(cells[i], 1).Result.Timeline.Windows[0])
		widest += encodedLen(t, widestOutcome(cells[i], 0)) + 1 + windows*(window+1)
	}
	if widest <= 256<<20 {
		t.Fatalf("the widest reply is only %d bytes; the test wants one over 256 MiB", widest)
	}
	if bound := replyBound(unitCells(cells, unit), interval); widest > bound {
		t.Fatalf("widest reply to a %d-cell unit at the window cap is %d bytes, bound %d", len(unit), widest, bound)
	}
}

// unitCells picks a planned unit's cells.
func unitCells(cells []sweep.Cell, unit []int) []sweep.Cell {
	out := make([]sweep.Cell, len(unit))
	for k, i := range unit {
		out[k] = cells[i]
	}
	return out
}
