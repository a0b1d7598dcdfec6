package sweep

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"jetty/internal/energy"
	"jetty/internal/metrics"
	"jetty/internal/sim"
)

// CellResult pairs one finished cell with its raw measurement.
type CellResult struct {
	Cell   Cell          `json:"cell"`
	Result sim.AppResult `json:"result"`
}

// Metric is one (cell, filter) observation: the paper's per-filter
// numbers plus the cell's snoop-miss fractions. A bank-mode cell yields
// one Metric per attached filter.
type Metric struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Filter   string `json:"filter"`
	Repeat   int    `json:"repeat"`

	// Coverage is the filter rate: the fraction of snoops filtered
	// (Figures 4/5).
	Coverage float64 `json:"coverage"`
	// The four Figure 6 energy reductions.
	SerialOverSnoops   float64 `json:"energy_serial_over_snoops"`
	SerialOverAll      float64 `json:"energy_serial_over_all"`
	ParallelOverSnoops float64 `json:"energy_parallel_over_snoops"`
	ParallelOverAll    float64 `json:"energy_parallel_over_all"`
	// The cell's Table 3 snoop-miss fractions (filter-independent,
	// repeated on every Metric of the cell).
	SnoopMissOfSnoops float64 `json:"snoopmiss_of_snoops"`
	SnoopMissOfAll    float64 `json:"snoopmiss_of_all"`
}

// CellTimeline is one retained per-cell timeline (see Spec.Timelines).
type CellTimeline struct {
	Cell     int               `json:"cell"`
	Workload string            `json:"workload"`
	Machine  string            `json:"machine"`
	Repeat   int               `json:"repeat"`
	Timeline *metrics.Timeline `json:"timeline"`
}

// Result is a finished sweep: the raw per-cell measurements and the
// flattened per-filter metrics. Sampled sweeps additionally carry the
// timelines the retention policy kept; cell results themselves are
// always stripped of timelines (Timelines is the one home, applied
// once, instead of a copy hiding in every CellResult).
type Result struct {
	Spec      Spec           `json:"spec"`
	Cells     []CellResult   `json:"cells"`
	Metrics   []Metric       `json:"metrics"`
	Timelines []CellTimeline `json:"timelines,omitempty"`
}

// fold derives the metric set from finished cells and applies the
// timeline retention policy. results must align with cells by index.
func fold(spec Spec, cells []Cell, results []sim.AppResult) *Result {
	out := &Result{Spec: spec}
	tech := energy.Tech180()
	policy := spec.normalize().Timelines
	keepFirst := map[string]bool{}
	for i, c := range cells {
		res := results[i]
		if tl := res.Timeline; tl != nil {
			res.Timeline = nil // stripped from the cell; retained below
			switch policy {
			case TimelinesAll:
				out.Timelines = append(out.Timelines, CellTimeline{
					Cell: c.Index, Workload: c.Workload, Machine: c.Machine, Repeat: c.Repeat, Timeline: tl,
				})
			case TimelinesFirst:
				key := c.Workload + "\x00" + c.Machine
				if !keepFirst[key] {
					keepFirst[key] = true
					out.Timelines = append(out.Timelines, CellTimeline{
						Cell: c.Index, Workload: c.Workload, Machine: c.Machine, Repeat: c.Repeat, Timeline: tl,
					})
				}
			}
		}
		out.Cells = append(out.Cells, CellResult{Cell: c, Result: res})
		serial := sim.EnergyReductions(res, c.cfg, tech, energy.SerialTagData)
		parallel := sim.EnergyReductions(res, c.cfg, tech, energy.ParallelTagData)
		for fi, name := range res.FilterNames {
			out.Metrics = append(out.Metrics, Metric{
				Workload:           c.Workload,
				Machine:            c.Machine,
				Filter:             name,
				Repeat:             c.Repeat,
				Coverage:           res.Coverage[fi],
				SerialOverSnoops:   serial[fi].OverSnoops,
				SerialOverAll:      serial[fi].OverAll,
				ParallelOverSnoops: parallel[fi].OverSnoops,
				ParallelOverAll:    parallel[fi].OverAll,
				SnoopMissOfSnoops:  res.SnoopMissOfSnoops,
				SnoopMissOfAll:     res.SnoopMissOfAll,
			})
		}
	}
	return out
}

// Stats summarizes one metric column over a group.
type Stats struct {
	N    int     `json:"n"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	// GeoMean is the geometric mean, 0 when any sample is non-positive
	// (energy reductions can go negative when filter overhead exceeds
	// savings; a geometric mean is then undefined).
	GeoMean float64 `json:"geomean"`
}

// Summarize computes Stats over samples (zero Stats for empty input).
func Summarize(xs []float64) Stats {
	if len(xs) == 0 {
		return Stats{}
	}
	st := Stats{N: len(xs), Min: xs[0], Max: xs[0]}
	logSum, geoOK := 0.0, true
	for _, x := range xs {
		st.Mean += x
		st.Min = math.Min(st.Min, x)
		st.Max = math.Max(st.Max, x)
		if x > 0 {
			logSum += math.Log(x)
		} else {
			geoOK = false
		}
	}
	st.Mean /= float64(len(xs))
	if geoOK {
		st.GeoMean = math.Exp(logSum / float64(len(xs)))
	}
	return st
}

// Axis names one grouping dimension.
type Axis string

// Grouping dimensions.
const (
	ByWorkload Axis = "workload"
	ByMachine  Axis = "machine"
	ByFilter   Axis = "filter"
)

// ParseAxes parses a comma-separated list of axis names, ignoring
// blanks around names and empty entries.
func ParseAxes(list string) ([]Axis, error) {
	var out []Axis
	for _, n := range strings.Split(list, ",") {
		switch a := Axis(strings.TrimSpace(n)); a {
		case "":
		case ByWorkload, ByMachine, ByFilter:
			out = append(out, a)
		default:
			return nil, fmt.Errorf("sweep: unknown axis %q (want workload, machine or filter)", a)
		}
	}
	return out, nil
}

// Columns are the metric columns every aggregate carries, in render
// order. The name doubles as the CSV/markdown header.
var Columns = []struct {
	Name string
	Of   func(Metric) float64
}{
	{"coverage", func(m Metric) float64 { return m.Coverage }},
	{"energy-%/snoops (serial)", func(m Metric) float64 { return m.SerialOverSnoops }},
	{"energy-%/all (serial)", func(m Metric) float64 { return m.SerialOverAll }},
	{"energy-%/snoops (parallel)", func(m Metric) float64 { return m.ParallelOverSnoops }},
	{"energy-%/all (parallel)", func(m Metric) float64 { return m.ParallelOverAll }},
	{"snoopmiss/snoops", func(m Metric) float64 { return m.SnoopMissOfSnoops }},
	{"snoopmiss/all", func(m Metric) float64 { return m.SnoopMissOfAll }},
}

// Group is one aggregate row: the axis values it groups on and per-column
// statistics over every member metric.
type Group struct {
	// Labels are the group's axis values, aligned with the GroupBy axes.
	Labels []string `json:"labels"`
	// Columns holds one Stats per sweep.Columns entry, same order.
	Columns []Stats `json:"columns"`
}

// axisValue extracts one metric coordinate.
func axisValue(m Metric, a Axis) string {
	switch a {
	case ByWorkload:
		return m.Workload
	case ByMachine:
		return m.Machine
	case ByFilter:
		return m.Filter
	default:
		return ""
	}
}

// GroupBy folds metrics along the given axes (first-appearance order,
// which expansion makes deterministic). No axes means one global group.
func GroupBy(metrics []Metric, axes ...Axis) []Group {
	type bucket struct {
		labels  []string
		samples [][]float64
	}
	var order []string
	buckets := map[string]*bucket{}
	for _, m := range metrics {
		labels := make([]string, len(axes))
		key := ""
		for i, a := range axes {
			labels[i] = axisValue(m, a)
			key += labels[i] + "\x00"
		}
		b := buckets[key]
		if b == nil {
			b = &bucket{labels: labels, samples: make([][]float64, len(Columns))}
			buckets[key] = b
			order = append(order, key)
		}
		for ci, col := range Columns {
			b.samples[ci] = append(b.samples[ci], col.Of(m))
		}
	}
	out := make([]Group, 0, len(order))
	for _, key := range order {
		b := buckets[key]
		g := Group{Labels: b.labels, Columns: make([]Stats, len(Columns))}
		for ci := range Columns {
			g.Columns[ci] = Summarize(b.samples[ci])
		}
		out = append(out, g)
	}
	return out
}

// BestBy returns the group labels with the highest mean of the named
// column — "which filter saved the most energy over this sweep" style
// queries. Ties resolve to the earliest group.
func BestBy(groups []Group, column string) (Group, error) {
	ci := -1
	for i, c := range Columns {
		if c.Name == column {
			ci = i
		}
	}
	if ci < 0 {
		names := make([]string, len(Columns))
		for i, c := range Columns {
			names[i] = c.Name
		}
		sort.Strings(names)
		return Group{}, fmt.Errorf("sweep: unknown column %q (have %v)", column, names)
	}
	if len(groups) == 0 {
		return Group{}, fmt.Errorf("sweep: no groups")
	}
	best := groups[0]
	for _, g := range groups[1:] {
		if g.Columns[ci].Mean > best.Columns[ci].Mean {
			best = g
		}
	}
	return best, nil
}
