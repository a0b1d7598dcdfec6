package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event count. Add bumps it; Set mirrors an
// external monotone counter (e.g. an engine.Stats field) into the
// exposition — callers must only ever set non-decreasing values.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the counter with an externally maintained total.
func (c *Counter) Set(total uint64) { c.v.Store(total) }

// Value returns the current total.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value.
type Gauge struct{ v atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.v.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if g.v.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Family is a set of instruments of one kind sharing a name,
// distinguished by label values (e.g. route and status for HTTP latency,
// tenant and reason for admission rejections). An unlabeled instrument
// is the single child of a family with no labels. Resolve a child once
// with With and keep the handle: the child's own methods are the
// lock-free hot path; With takes a read lock and allocates only when it
// creates a new child.
type Family[T any] struct {
	name     string
	labels   []string
	newChild func() *T

	mu       sync.RWMutex
	children map[labelKey]*T
}

// CounterFamily, GaugeFamily and HistogramFamily are the three kinds of
// family a Registry makes.
type (
	CounterFamily   = Family[Counter]
	GaugeFamily     = Family[Gauge]
	HistogramFamily = Family[Histogram]
)

// labelKey indexes a family's children without allocating on lookup:
// families carry at most three labels, so a fixed-size array key keeps
// the map access allocation-free even on the hot path.
type labelKey [maxLabels]string

// maxLabels is the most labels one family may carry.
const maxLabels = 3

// With returns the child for the given label values, creating it on
// first use. The number of values must match the family's label names;
// With panics otherwise — a miswired instrument is a programming error,
// not a runtime condition.
func (f *Family[T]) With(values ...string) *T {
	if len(values) != len(f.labels) {
		panic("obs: label value count mismatch for " + f.name)
	}
	var key labelKey
	copy(key[:], values)
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[key]; c != nil {
		return c
	}
	c = f.newChild()
	f.children[key] = c
	return c
}

// child is one labeled instrument of a family snapshot.
type child[T any] struct {
	key labelKey
	v   *T
}

// snapshot returns the family's children sorted by label values, so
// successive scrapes are diffable.
func (f *Family[T]) snapshot() []child[T] {
	f.mu.RLock()
	out := make([]child[T], 0, len(f.children))
	for k, v := range f.children {
		out = append(out, child[T]{k, v})
	}
	f.mu.RUnlock()
	slices.SortFunc(out, func(a, b child[T]) int { return slices.Compare(a.key[:], b.key[:]) })
	return out
}

// family is one registered metric family. render writes its samples;
// the constructor that registered it builds it around the typed Family.
type family struct {
	name   string
	help   string
	typ    string // "counter" | "gauge" | "histogram"
	labels []string
	render func(b *strings.Builder)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). Families render in registration
// order, each family's children sorted by label values; every family
// always renders its HELP and TYPE lines, so a scrape can never observe
// a bare series (the promlint invariant).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// register panics on duplicate or malformed names: instruments are wired
// at construction time, so a bad registration is a programming error.
func (r *Registry) register(f *family) {
	if !metricNameRE.MatchString(f.name) {
		panic("obs: invalid metric name " + f.name)
	}
	if f.typ == "counter" && !strings.HasSuffix(f.name, "_total") {
		panic("obs: counter " + f.name + " must end in _total")
	}
	if len(f.labels) > maxLabels {
		panic("obs: too many labels on " + f.name)
	}
	for _, l := range f.labels {
		if !metricNameRE.MatchString(l) || strings.HasPrefix(l, "__") {
			panic("obs: invalid label name " + l + " on " + f.name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic("obs: duplicate metric " + f.name)
	}
	r.families = append(r.families, f)
	r.byName[f.name] = f
}

// newFamily registers a family of the given type whose children are
// made by newChild; sample writes one child's sample lines, given the
// child's label pairs rendered once (see labelPairs).
func newFamily[T any](r *Registry, name, help, typ string, labels []string,
	newChild func() *T, sample func(b *strings.Builder, name, pairs string, c *T)) *Family[T] {
	tf := &Family[T]{name: name, labels: labels, newChild: newChild, children: make(map[labelKey]*T)}
	f := &family{name: name, help: help, typ: typ, labels: labels}
	f.render = func(b *strings.Builder) {
		for _, c := range tf.snapshot() {
			sample(b, name, labelPairs(labels, c.key), c.v)
		}
	}
	r.register(f)
	return tf
}

// NewCounter registers an unlabeled counter. The name must end in
// _total (Prometheus counter convention; the in-repo linter enforces
// the same rule on scrape output).
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.NewCounterFamily(name, help, nil).With()
}

// NewCounterFamily registers a labeled counter family. The name must end
// in _total, like NewCounter's.
func (r *Registry) NewCounterFamily(name, help string, labels []string) *CounterFamily {
	return newFamily(r, name, help, "counter", labels, func() *Counter { return &Counter{} },
		func(b *strings.Builder, name, pairs string, c *Counter) {
			fmt.Fprintf(b, "%s%s %d\n", name, braced(pairs), c.Value())
		})
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.NewGaugeFamily(name, help, nil).With()
}

// NewGaugeFamily registers a labeled gauge family.
func (r *Registry) NewGaugeFamily(name, help string, labels []string) *GaugeFamily {
	return newFamily(r, name, help, "gauge", labels, func() *Gauge { return &Gauge{} },
		func(b *strings.Builder, name, pairs string, g *Gauge) {
			fmt.Fprintf(b, "%s%s %s\n", name, braced(pairs), formatFloat(g.Value()))
		})
}

// NewHistogramFamily registers a labeled histogram family with the given
// bucket upper bounds (nil means DefBuckets). Bounds must be strictly
// ascending. Each child renders its cumulative le-labeled buckets, then
// _sum and _count. A bucket line allocates nothing: its le pair is
// rendered once here and its count appended in place.
func (r *Registry) NewHistogramFamily(name, help string, labels []string, bounds []float64) *HistogramFamily {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not ascending for " + name)
		}
	}
	les := make([]string, len(bounds)+1)
	for i, v := range bounds {
		les[i] = `le="` + formatFloat(v) + `"`
	}
	les[len(bounds)] = `le="+Inf"`
	return newFamily(r, name, help, "histogram", labels, func() *Histogram { return newHistogram(bounds) },
		func(b *strings.Builder, name, pairs string, h *Histogram) {
			counts, sum := h.snapshot()
			var cum uint64
			var num [20]byte
			for bi, c := range counts {
				cum += c
				b.WriteString(name)
				b.WriteString("_bucket{")
				if pairs != "" {
					b.WriteString(pairs)
					b.WriteByte(',')
				}
				b.WriteString(les[bi])
				b.WriteString("} ")
				b.Write(strconv.AppendUint(num[:0], cum, 10))
				b.WriteByte('\n')
			}
			set := braced(pairs)
			fmt.Fprintf(b, "%s_sum%s %s\n", name, set, formatFloat(sum))
			fmt.Fprintf(b, "%s_count%s %d\n", name, set, cum)
		})
}

// WriteText renders every family in the Prometheus text exposition
// format. Values are read live from the instruments; callers that need a
// consistent multi-source snapshot (the jettyd /metrics handler does)
// set the mirrored instruments from one snapshot first, then render.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.typ)
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelPairs renders a child's label set as name="value" pairs joined
// by commas, without braces: once per child, whatever its line count.
func labelPairs(names []string, key labelKey) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, key[i])
		b.WriteByte('"')
	}
	return b.String()
}

// braced wraps label pairs in braces; no pairs render as nothing.
func braced(pairs string) string {
	if pairs == "" {
		return ""
	}
	return "{" + pairs + "}"
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
