package obs

import (
	"strings"
	"testing"
)

func TestRegistryWriteTextLintsClean(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_events_total", "Events seen.")
	g := r.NewGauge("test_depth", "Queue depth.")
	gf := r.NewGaugeFamily("test_build_info", "Build info.", []string{"version"})
	hf := r.NewHistogramFamily("test_latency_seconds", "Latency.", []string{"route"}, nil)

	c.Add(3)
	g.Set(7)
	gf.With("v1.2").Set(1)
	hf.With("/a").Observe(0.001)
	hf.With("/a").Observe(10)
	hf.With("/b with space").Observe(0.5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP test_events_total Events seen.",
		"# TYPE test_events_total counter",
		"test_events_total 3",
		"test_depth 7",
		`test_build_info{version="v1.2"} 1`,
		`test_latency_seconds_bucket{route="/a",le="+Inf"} 2`,
		`test_latency_seconds_count{route="/a"} 2`,
		`test_latency_seconds_count{route="/b with space"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if problems := Lint(out); len(problems) != 0 {
		t.Errorf("own exposition does not lint clean: %v", problems)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	gf := r.NewGaugeFamily("test_info", "Info.", []string{"v"})
	gf.With(`quo"te\slash` + "\nnewline").Set(1)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `v="quo\"te\\slash\nnewline"`) {
		t.Errorf("label not escaped:\n%s", out)
	}
	// The strict parser must round-trip the escaped value.
	exp, err := ParseText(out)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range exp.Samples {
		if s.Labels["v"] == "quo\"te\\slash\nnewline" {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped label did not round-trip: %+v", exp.Samples)
	}
}

func TestRegistryRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(r *Registry)
	}{
		{"duplicate name", func(r *Registry) {
			r.NewGauge("test_dup", "a.")
			r.NewGauge("test_dup", "b.")
		}},
		{"counter without _total", func(r *Registry) {
			r.NewCounter("test_events", "missing suffix.")
		}},
		{"invalid name", func(r *Registry) {
			r.NewGauge("test-dashes", "bad.")
		}},
		{"too many labels", func(r *Registry) {
			r.NewGaugeFamily("test_labels", "bad.", []string{"a", "b", "c", "d"})
		}},
		{"reserved label", func(r *Registry) {
			r.NewGaugeFamily("test_reserved", "bad.", []string{"__name__"})
		}},
		{"descending buckets", func(r *Registry) {
			r.NewHistogramFamily("test_h_seconds", "bad.", nil, []float64{2, 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: did not panic", tc.name)
				}
			}()
			tc.f(NewRegistry())
		})
	}
}

func TestRegistryHistogramCumulativeUnderLoad(t *testing.T) {
	// Scrape while writers race: every rendered exposition must still
	// satisfy the cumulative-bucket and +Inf == _count invariants, because
	// cumulative counts are rebuilt at render time.
	r := NewRegistry()
	hf := r.NewHistogramFamily("test_race_seconds", "Race.", nil, []float64{0.01, 0.1, 1})
	h := hf.With()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.Observe(0.05)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if problems := Lint(b.String()); len(problems) != 0 {
			close(stop)
			t.Fatalf("scrape %d under load failed lint: %v", i, problems)
		}
	}
	close(stop)
}

func TestRegistryCounterFamily(t *testing.T) {
	r := NewRegistry()
	cf := r.NewCounterFamily("test_rejections_total", "Rejections by tenant and reason.",
		[]string{"tenant", "reason"})
	cf.With("bob", "quota").Add(2)
	cf.With("alice", "quota").Add(1)
	cf.With("bob", "quota").Add(3)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_rejections_total counter",
		`test_rejections_total{tenant="alice",reason="quota"} 1`,
		`test_rejections_total{tenant="bob",reason="quota"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Children render sorted by label values: alice before bob.
	if strings.Index(out, `tenant="alice"`) > strings.Index(out, `tenant="bob"`) {
		t.Errorf("counter children not sorted:\n%s", out)
	}
	if problems := Lint(out); len(problems) != 0 {
		t.Errorf("counter family does not lint clean: %v", problems)
	}
	// Same With twice returns the same child.
	if cf.With("bob", "quota") != cf.With("bob", "quota") {
		t.Error("With returned distinct children for equal labels")
	}

	// Gauge and histogram families render their children sorted too,
	// whatever order they were first written in.
	r = NewRegistry()
	gf := r.NewGaugeFamily("test_depth", "Depth by tenant.", []string{"tenant"})
	gf.With("bob").Set(2)
	gf.With("alice").Set(1)
	hf := r.NewHistogramFamily("test_wait_seconds", "Wait by tenant.", []string{"tenant"}, nil)
	hf.With("bob").Observe(1)
	hf.With("alice").Observe(1)
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, series := range []string{"test_depth{", "test_wait_seconds_count{"} {
		alice := strings.Index(out, series+`tenant="alice"`)
		bob := strings.Index(out, series+`tenant="bob"`)
		if alice < 0 || bob < 0 || alice > bob {
			t.Errorf("%s children not sorted:\n%s", series, out)
		}
	}
	if problems := Lint(out); len(problems) != 0 {
		t.Errorf("gauge and histogram families do not lint clean: %v", problems)
	}
}

func TestRegistryCounterFamilyPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("counter family without _total suffix should panic")
		}
	}()
	r.NewCounterFamily("test_bad_name", "Bad.", []string{"a"})
}
