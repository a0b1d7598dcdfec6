// Command e2ebench is the repository's end-to-end benchmark: it builds
// nothing itself (run.sh does), boots real jettyd processes and drives
// them with closed-loop clients, each submitting a 16-cell sweep to
// POST /v1/sweeps, polling its status and fetching its result before
// sending the next. Every result is checked; a sample is recomputed
// in-process with jettysweep and must match bit for bit.
//
//	e2ebench -bin .bench_build --workload single --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: end-to-end
// latency, throughput and set-up time, or with --trace 1 the per-layer
// costs (client spans plus the daemons' /metrics over the window and over
// one more segment with -data-dir; the spans are also written to
// .bench_build/traces/). A run that cannot build, boot or reach its
// daemons exits non-zero without a result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one traffic mix: the daemons it runs against and how many
// closed-loop clients, one tenant each, drive them. Every client sends
// new sweeps only, so the result caches never answer and every request
// reaches the engine and the simulator.
type workload struct {
	topology string
	clients  int
}

var workloads = map[string]workload{
	"single":  {topology: "single", clients: 1},
	"cluster": {topology: "cluster", clients: 1},
	"tenants": {topology: "single", clients: 4},
}

const (
	// setupRounds is how often a run boots its topology from scratch;
	// setup_s is the median. Every (setupRounds/segments)-th boot serves
	// an equal share of the measured window, so the boots are spread over
	// the whole run rather than bunched at its start.
	setupRounds = 16
	segments    = 4
	// warmup is closed-loop traffic sent, checked and discarded before
	// each measured segment.
	warmup = 500 * time.Millisecond
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: single, cluster or tenants")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	bin := flag.String("bin", ".bench_build", "directory with the jettyd and jettysweep binaries; runs and traces go below it")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -bin DIR --workload single|cluster|tenants --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep, err := run(ctx, *bin, *name, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(ctx context.Context, bin, name string, w workload, seed int64, window time.Duration, traced bool) (rep *report, err error) {
	// The run directory holds the daemons' logs and data directories:
	// kept after a failure for inspection, removed otherwise.
	dir := filepath.Join(bin, "runs", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	defer func() {
		if err == nil {
			err = os.RemoveAll(dir)
		}
	}()
	gen := newSpecs(seed)
	v := newVerifier()
	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = &client{tenant: fmt.Sprintf("client-%d", i)}
	}
	jettyd := filepath.Join(bin, "jettyd")

	var tr *tracer
	if traced {
		tr = &tracer{origin: time.Now()}
	}
	var (
		setups   []float64
		samples  []sample
		measured time.Duration
		reqs     atomic.Int64
	)
	layers := series{}
	for round := 0; round < setupRounds; round++ {
		top, setup, err := boot(ctx, w.topology, jettyd, filepath.Join(dir, fmt.Sprint("boot-", round)), false, gen, v)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		if (round+1)%(setupRounds/segments) == 0 {
			var seg segment
			seg, err = measure(ctx, top, clients, window/segments, gen, v, tr, &reqs)
			samples = append(samples, seg.samples...)
			measured += seg.elapsed
			for k, x := range seg.layers {
				layers[k] += x
			}
		}
		top.stop()
		if err != nil {
			return nil, err
		}
	}

	// A traced run also sends half a segment of the same traffic to the
	// topology booted with -data-dir, so the store's write-through shows
	// next to the in-memory engine run time.
	var durable segment
	if traced {
		top, _, err := boot(ctx, w.topology, jettyd, filepath.Join(dir, "durable"), true, gen, v)
		if err != nil {
			return nil, err
		}
		// Its spans go to a tracer of their own, kept out of the client
		// round trips of the in-memory window.
		durable, err = measure(ctx, top, clients, window/segments/2, gen, v, &tracer{origin: tr.origin}, &reqs)
		top.stop()
		if err != nil {
			return nil, err
		}
		// The daemon keeps serving when a durable write fails, so a
		// failure shows only in this counter.
		if n := durable.layers.sum("jettyd_store_errors_total", ""); n != 0 {
			v.fail(fmt.Errorf("%v failed store operations with -data-dir", n))
		}
	}

	if err := v.reference(ctx, filepath.Join(bin, "jettysweep"), dir); err != nil {
		return nil, err
	}

	rep = &report{Attempted: len(samples)}
	done := succeeded(samples)
	rep.Failed = len(samples) - len(done)
	for _, msg := range v.invalid {
		fmt.Fprintln(os.Stderr, "e2ebench: wrong result:", msg)
	}
	// Failed requests are left out of the latency figures, so any failure,
	// warm-up included, makes the run incorrect: no workload comes near
	// the daemons' admission caps.
	rep.Correct = v.bad == 0 && v.errs == 0 && len(done) > 0
	if traced {
		if err := os.MkdirAll(filepath.Join(bin, "traces"), 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(bin, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
			return nil, err
		}
		rep.Metrics = layerMetrics(tr, layers, done, durable.layers, succeeded(durable.samples))
	} else {
		var lat []float64
		var cells int
		for _, s := range done {
			lat = append(lat, ms(s.end.Sub(s.start)))
			cells += s.cells
		}
		sort.Float64s(lat)
		sort.Float64s(setups)
		rep.Metrics = map[string]value{
			"sweep_p50_ms": {median(lat), "ms"},
			"sweep_p90_ms": {quantile(lat, 0.9), "ms"},
			"cells_per_s":  {ratio(float64(cells), measured.Seconds()), "1/s"},
			"setup_s":      {median(setups), "s"},
		}
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d sweeps (%d failed, %d with warm-up and set-up, %d wrong, %d recomputed) in %v\n",
		name, seed, rep.Attempted, rep.Failed, v.errs, v.bad, len(v.oracle), measured.Round(time.Millisecond))
	return rep, nil
}

// succeeded returns the samples whose request completed, logging the
// first few failures.
func succeeded(samples []sample) []sample {
	var done []sample
	for i, s := range samples {
		if s.err == nil {
			done = append(done, s)
		} else if i-len(done) < 5 {
			fmt.Fprintln(os.Stderr, "e2ebench: request failed:", s.err)
		}
	}
	return done
}

// boot starts a topology from scratch and serves its first sweep: that
// is the set-up a user waits for before the service is useful. It
// returns how long it took.
func boot(ctx context.Context, kind, jettyd, dir string, durable bool, gen *specs, v *verifier) (*topology, float64, error) {
	t0 := time.Now()
	top, err := startTopology(ctx, kind, jettyd, dir, durable)
	if err != nil {
		return nil, 0, err
	}
	c := &client{base: top.front.base, tenant: "setup"}
	s := c.sweep(ctx, 0, gen.fresh())
	v.check(c, &s)
	if s.err != nil {
		top.stop()
		return nil, 0, fmt.Errorf("first sweep: %w", s.err)
	}
	return top, time.Since(t0).Seconds(), nil
}

// segment is one measured stretch of closed-loop traffic on one boot.
type segment struct {
	samples []sample
	elapsed time.Duration // from the first request to the last reply
	layers  series        // the daemons' /metrics delta, traced runs only
}

// measure warms a freshly booted topology up, then runs the clients
// against it for d. Spreading a run's window over several boots averages
// out how fast one particular process happens to be.
func measure(ctx context.Context, top *topology, clients []*client, d time.Duration, gen *specs, v *verifier, tr *tracer, reqs *atomic.Int64) (segment, error) {
	for _, c := range clients {
		c.base, c.tracer = top.front.base, nil
	}
	phase(ctx, clients, warmup, gen, v, reqs)
	var seg segment
	var before series
	if tr != nil {
		var err error
		if before, err = scrape(ctx, top); err != nil {
			return seg, err
		}
		for _, c := range clients {
			c.tracer = tr
		}
	}
	start := time.Now()
	seg.samples = phase(ctx, clients, d, gen, v, reqs)
	seg.elapsed = time.Since(start)
	if err := ctx.Err(); err != nil {
		return seg, err
	}
	if tr != nil {
		after, err := scrape(ctx, top)
		if err != nil {
			return seg, err
		}
		seg.layers = delta(before, after)
	}
	return seg, nil
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(sorted []float64) float64 { return quantile(sorted, 0.5) }
