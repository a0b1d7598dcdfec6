package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"jetty/internal/addr"
	"jetty/internal/jetty"
	"jetty/internal/metrics"
	"jetty/internal/sim"
	"jetty/internal/smp"
	"jetty/internal/workload"
)

// TracePrefix marks a workload-axis entry that replays a stored trace
// instead of running a library generator. The text after the prefix is a
// resolver-dependent reference: an upload digest for the jettyd service,
// a file path for cmd/jettysweep.
const TracePrefix = "trace:"

// Bounds on a single sweep. Everything a spec can grow in is capped:
// sweeps arrive from unauthenticated service clients too.
const (
	// MaxCells bounds the expanded cross-product.
	MaxCells = 4096
	// MaxRepeat bounds the repetition axis.
	MaxRepeat = 64
	// MaxScale bounds the access-budget multiplier: the largest Table 2
	// budget (3M references) times MaxScale stays a finite,
	// hours-not-years job and far from uint64 conversion overflow.
	MaxScale = 10_000
)

// Machine describes one machine-axis value as overrides of the paper's
// base configuration (smp.PaperConfig). The zero Machine is the paper's
// 4-way, 1 MB 4-way-associative, subblocked machine.
type Machine struct {
	// Name labels the axis value in results; empty derives a shorthand
	// like "4cpu-1024K-4w" (plus "-nsb" when NSB is set).
	Name string `json:"name,omitempty"`
	// CPUs is the machine width (0 = 4, the paper's).
	CPUs int `json:"cpus,omitempty"`
	// NSB disables L2 subblocking (the §4.3 comparison machine).
	NSB bool `json:"nsb,omitempty"`
	// L2Bytes overrides the L2 capacity (0 = 1 MB).
	L2Bytes int `json:"l2_bytes,omitempty"`
	// L2Assoc overrides the L2 associativity (0 = 4).
	L2Assoc int `json:"l2_assoc,omitempty"`
}

// withDefaults fills the zero fields with the paper's base machine.
func (m Machine) withDefaults() Machine {
	if m.CPUs == 0 {
		m.CPUs = 4
	}
	if m.L2Bytes == 0 {
		m.L2Bytes = 1 << 20
	}
	if m.L2Assoc == 0 {
		m.L2Assoc = 4
	}
	return m
}

// Label returns the machine's result label: Name, or the derived
// geometry shorthand.
func (m Machine) Label() string {
	if m.Name != "" {
		return m.Name
	}
	m = m.withDefaults()
	l := fmt.Sprintf("%dcpu-%dK-%dw", m.CPUs, m.L2Bytes>>10, m.L2Assoc)
	if m.NSB {
		l += "-nsb"
	}
	return l
}

// Config builds the smp machine with the given filter bank attached.
func (m Machine) Config(filters []jetty.Config) (smp.Config, error) {
	m = m.withDefaults()
	cfg := smp.PaperConfig(m.CPUs).WithFilters(filters...)
	cfg.L2.SizeBytes = m.L2Bytes
	cfg.L2.Assoc = m.L2Assoc
	if m.NSB {
		cfg.L2.Geom = addr.NonSubblocked
	}
	if err := cfg.Validate(); err != nil {
		return smp.Config{}, fmt.Errorf("sweep: machine %s: %w", m.Label(), err)
	}
	return cfg, nil
}

// Spec is a declarative sweep: the cross-product of its axes, run at the
// given scale and repetition policy. It is the JSON body of POST
// /v1/sweeps and the file cmd/jettysweep reads.
type Spec struct {
	// Name labels the sweep in listings and renders.
	Name string `json:"name,omitempty"`
	// Workloads is the workload axis: library names or abbreviations
	// ("Barnes", "un", "WebServer", ...) and/or "trace:<ref>" entries.
	// Required, at least one.
	Workloads []string `json:"workloads"`
	// Machines is the machine axis; empty means the single paper machine.
	Machines []Machine `json:"machines,omitempty"`
	// Filters is the JETTY-configuration axis (jetty.Parse names); empty
	// means the union bank of all the paper's figures.
	Filters []string `json:"filters,omitempty"`
	// FilterMode places the filter axis: "bank" (default) attaches every
	// filter to each (workload, machine) run as simultaneous observers;
	// "each" gives every filter its own cell. Per-filter numbers are
	// identical either way; bank simulates |Filters|× less.
	FilterMode string `json:"filter_mode,omitempty"`
	// Scale multiplies every generator access budget (0 = 1, the paper's
	// budgets). Does not apply to trace entries (a stored stream has a
	// fixed length).
	Scale float64 `json:"scale,omitempty"`
	// Repeat runs every generator cell this many times (0 or 1 = once),
	// perturbing the workload seed by SeedStride per repetition, so
	// aggregates carry min/max spread instead of a single sample. Trace
	// entries replay identically and are run once regardless.
	Repeat int `json:"repeat,omitempty"`
	// SeedStride is the per-repetition seed offset (0 = 1).
	SeedStride int64 `json:"seed_stride,omitempty"`
	// Interval, when nonzero, samples every cell with that timeline
	// window width (accesses per window, >= metrics.MinInterval; see
	// internal/metrics). Sampling never changes per-filter numbers; it
	// adds a per-cell timeline whose retention Timelines controls.
	Interval uint64 `json:"interval,omitempty"`
	// Timelines is the per-cell timeline retention policy, applied when
	// folding a sampled sweep (Interval > 0):
	//
	//	"none"  (default) timelines are computed and dropped — the cheap
	//	        way to keep sampled cache keys warm for later fetches
	//	"first" retain repeat 0 of every (workload, machine) — one
	//	        representative time series per axis point
	//	"all"   retain every cell's timeline (largest results)
	Timelines string `json:"timelines,omitempty"`
}

// Timeline retention policies.
const (
	TimelinesNone  = "none"
	TimelinesFirst = "first"
	TimelinesAll   = "all"
)

// MaxWindowsPerCell bounds one cell's timeline (sweeps arrive from
// unauthenticated service clients; a tiny interval against a huge scaled
// budget would otherwise retain unbounded window lists).
const MaxWindowsPerCell = 1 << 14

// Filter-placement modes.
const (
	ModeBank = "bank"
	ModeEach = "each"
)

// normalize fills the spec's defaulted fields.
func (s Spec) normalize() Spec {
	if len(s.Machines) == 0 {
		s.Machines = []Machine{{}}
	}
	if len(s.Filters) == 0 {
		s.Filters = sim.AllFigureConfigs()
	}
	if s.FilterMode == "" {
		s.FilterMode = ModeBank
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.Repeat <= 0 {
		s.Repeat = 1
	}
	if s.SeedStride == 0 {
		s.SeedStride = 1
	}
	if s.Timelines == "" {
		s.Timelines = TimelinesNone
	}
	return s
}

// Validate reports specification errors without resolving trace
// references (expansion does that, with a resolver in hand).
func (s Spec) Validate() error {
	n := s.normalize()
	if len(n.Workloads) == 0 {
		return fmt.Errorf("sweep: no workloads")
	}
	if n.Scale < 0 || n.Scale > MaxScale {
		return fmt.Errorf("sweep: scale %v out of range (0, %d]", n.Scale, MaxScale)
	}
	if n.Repeat > MaxRepeat {
		return fmt.Errorf("sweep: repeat %d exceeds %d", n.Repeat, MaxRepeat)
	}
	if n.FilterMode != ModeBank && n.FilterMode != ModeEach {
		return fmt.Errorf("sweep: filter_mode %q must be %q or %q", n.FilterMode, ModeBank, ModeEach)
	}
	if n.Interval > 0 && n.Interval < metrics.MinInterval {
		return fmt.Errorf("sweep: interval %d below minimum %d", n.Interval, metrics.MinInterval)
	}
	switch n.Timelines {
	case TimelinesNone, TimelinesFirst, TimelinesAll:
	default:
		return fmt.Errorf("sweep: timelines %q must be %q, %q or %q",
			n.Timelines, TimelinesNone, TimelinesFirst, TimelinesAll)
	}
	if n.Interval == 0 && s.Timelines != "" && n.Timelines != TimelinesNone {
		return fmt.Errorf("sweep: timelines %q needs a sampling interval", n.Timelines)
	}
	for _, w := range n.Workloads {
		if strings.HasPrefix(w, TracePrefix) {
			if w == TracePrefix {
				return fmt.Errorf("sweep: empty trace reference")
			}
			continue
		}
		sp, err := workload.Lookup(w)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		if n.Interval > 0 {
			if windows := sp.Scale(n.Scale).Accesses / n.Interval; windows > MaxWindowsPerCell {
				return fmt.Errorf("sweep: %s at interval %d yields %d windows per cell (cap %d)",
					w, n.Interval, windows, MaxWindowsPerCell)
			}
		}
	}
	if _, err := jetty.ParseAll(n.Filters); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	for _, m := range n.Machines {
		if _, err := m.Config(nil); err != nil {
			return err
		}
	}
	if c := n.cellCount(); c > MaxCells {
		return fmt.Errorf("sweep: %d cells exceed the %d-cell cap", c, MaxCells)
	}
	return nil
}

// DecodeSpec reads one JSON spec from r and validates it. Unknown
// fields are rejected, so a typo'd key fails loudly instead of silently
// sweeping the default (a dropped "scale" runs the full paper budgets).
func DecodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, err
	}
	return spec, spec.Validate()
}

// cellCount is the upper bound of the expansion (trace entries repeat
// only once, so the true count may be lower).
func (s Spec) cellCount() int {
	groups := 1
	if s.FilterMode == ModeEach {
		groups = len(s.Filters)
	}
	return len(s.Workloads) * len(s.Machines) * groups * s.Repeat
}

// TraceResolver resolves a "trace:<ref>" workload-axis entry to a loaded
// trace. The jettyd service resolves upload digests; cmd/jettysweep
// resolves file paths. The error distinguishes "no such reference" from
// "reference found but unusable" (unreadable file, corrupt trace, ...).
type TraceResolver func(ref string) (sim.TraceInput, error)

// Cell is one point of the expanded cross-product: one simulation run.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int `json:"index"`
	// Workload, Machine and Repeat are the cell's axis coordinates.
	// Workload keeps the spec's spelling ("trace:<ref>" for replays) —
	// it is the grouping key, so it must be stable across runs.
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Repeat   int    `json:"repeat"`
	// Filters is the filter group measured by this cell (the whole bank
	// in bank mode, one configuration in each mode).
	Filters []string `json:"filters"`
	// Key is the cell's content address: the engine cache/dedup key.
	Key string `json:"key"`

	in  sim.Input // the reference stream: generator spec or trace
	cfg smp.Config
}

// Config returns the cell's machine configuration (filters attached).
func (c Cell) Config() smp.Config { return c.cfg }

// Total is the cell's access budget: how many references the cell
// simulates (a progress denominator for schedulers that track cells
// without holding engine jobs).
func (c Cell) Total() uint64 { return c.in.Total() }

// Label returns the workload spec the cell's result carries.
func (c Cell) Label() workload.Spec { return c.in.Label() }

// Expand resolves and expands the spec into its cells, in deterministic
// workload-major order. traces may be nil when the spec has no trace
// entries.
func (s Spec) Expand(traces TraceResolver) ([]Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.normalize()

	groups := [][]string{n.Filters}
	if n.FilterMode == ModeEach {
		groups = make([][]string, len(n.Filters))
		for i, f := range n.Filters {
			groups[i] = []string{f}
		}
	}

	// A machine configuration depends only on (machine, filter group):
	// parse and build each combination once, not once per workload.
	type point struct {
		machine Machine
		group   []string
		cfg     smp.Config
	}
	points := make([]point, 0, len(n.Machines)*len(groups))
	for _, m := range n.Machines {
		for _, group := range groups {
			fcs, err := jetty.ParseAll(group)
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			cfg, err := m.Config(fcs)
			if err != nil {
				return nil, err
			}
			points = append(points, point{machine: m, group: group, cfg: cfg})
		}
	}

	var cells []Cell
	for _, w := range n.Workloads {
		isTrace := strings.HasPrefix(w, TracePrefix)
		var in sim.TraceInput
		var sp workload.Spec
		if isTrace {
			ref := strings.TrimPrefix(w, TracePrefix)
			if traces == nil {
				return nil, fmt.Errorf("sweep: %q: no trace resolver available", w)
			}
			var err error
			if in, err = traces(ref); err != nil {
				return nil, fmt.Errorf("sweep: trace %q: %w", ref, err)
			}
		} else {
			var err error
			if sp, err = workload.Lookup(w); err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			sp = sp.Scale(n.Scale)
		}
		if isTrace && n.Interval > 0 {
			if windows := in.Records / n.Interval; windows > MaxWindowsPerCell {
				return nil, fmt.Errorf("sweep: trace %s at interval %d yields %d windows per cell (cap %d)",
					in.Name, n.Interval, windows, MaxWindowsPerCell)
			}
		}
		for _, pt := range points {
			if isTrace && pt.cfg.CPUs < in.CPUs {
				return nil, fmt.Errorf("sweep: trace %s needs %d cpus, machine %s has %d",
					in.Name, in.CPUs, pt.machine.Label(), pt.cfg.CPUs)
			}
			repeats := n.Repeat
			if isTrace {
				repeats = 1 // a stored stream replays identically
			}
			for r := 0; r < repeats; r++ {
				c := Cell{
					Index:    len(cells),
					Workload: w,
					Machine:  pt.machine.Label(),
					Repeat:   r,
					Filters:  append([]string(nil), pt.group...),
					cfg:      pt.cfg,
				}
				if isTrace {
					tin := in
					c.in.Trace = &tin
				} else {
					c.in.Spec = sp
					c.in.Spec.Seed = sp.Seed + n.SeedStride*int64(r)
				}
				// Sampled cells cache under their own key (the result
				// payload carries a timeline).
				c.Key = sim.Key(c.in, pt.cfg, n.Interval)
				cells = append(cells, c)
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep: expansion produced no cells")
	}
	return cells, nil
}
