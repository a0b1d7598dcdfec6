package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one client call (submit, poll, result) or a whole request
// (sweep, the parent of the calls with the same req).
type span struct {
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMS float64 `json:"start_ms"` // since the measured window opened
	DurMS   float64 `json:"dur_ms"`
}

// tracer keeps the spans of a traced run in memory until it ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func (t *tracer) span(req int64, name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	s := span{Req: req, Name: name, StartMS: ms(start.Sub(t.origin)), DurMS: ms(end.Sub(start))}
	if name != "sweep" {
		s.Parent = "sweep"
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the sorted durations (ms) of the spans called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.DurMS)
		}
	}
	sort.Float64s(out)
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// series is a /metrics exposition summed over daemons: sample line
// (name plus labels) to value.
type series map[string]float64

// scrape reads /metrics from every daemon of the topology.
func scrape(ctx context.Context, t *topology) (series, error) {
	out := series{}
	for _, d := range t.daemons {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := httpClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", d.name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", d.name, err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			i := strings.LastIndexByte(line, ' ')
			if line == "" || line[0] == '#' || i < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] += v
			}
		}
	}
	return out, nil
}

// sum adds the samples of metric name whose labels contain filter.
func (s series) sum(name, filter string) float64 {
	var total float64
	for k, v := range s {
		n, labels, _ := strings.Cut(k, "{")
		if n == name && strings.Contains(labels, filter) {
			total += v
		}
	}
	return total
}

// delta is after minus before, per sample line.
func delta(before, after series) series {
	d := series{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// layerMetrics derives the per-layer view of one measured window from
// the client spans, the daemons' /metrics delta over the window, and the
// window's samples; dd and durable are the delta and samples of the
// traced run's segment with -data-dir. Means over server histograms are
// per observation.
func layerMetrics(tr *tracer, d series, done []sample, dd series, durable []sample) map[string]value {
	sweeps := float64(len(done))
	var execRefs float64
	perTenant := map[string]float64{}
	for _, s := range done {
		execRefs += s.execRefs
		perTenant[s.tenant]++
	}
	least, most := sweeps, 0.0
	for _, n := range perTenant {
		least, most = min(least, n), max(most, n)
	}
	var lat []float64
	for _, s := range durable {
		lat = append(lat, ms(s.end.Sub(s.start)))
	}
	sort.Float64s(lat)
	meanMS := func(d series, hist, filter string) float64 {
		return ratio(1e3*d.sum(hist+"_sum", filter), d.sum(hist+"_count", filter))
	}
	const httpHist = "jettyd_http_request_duration_seconds"
	const runHist = "jettyd_engine_run_duration_seconds"
	return map[string]value{
		// Client: round trips of each call as the caller sees them.
		"submit_ms":       {median(tr.durations("submit")), "ms"},
		"poll_ms":         {median(tr.durations("poll")), "ms"},
		"result_ms":       {median(tr.durations("result")), "ms"},
		"polls_per_sweep": {ratio(float64(len(tr.durations("poll"))), sweeps), "count"},
		// Tenants: sweeps completed by the least served tenant over those
		// of the most served one (1 with a single client).
		"tenant_fairness": {ratio(least, most), "ratio"},
		// HTTP layer: server-side handling time per request.
		"server_submit_ms": {meanMS(d, httpHist, `route="POST /v1/sweeps"`), "ms"},
		"server_poll_ms":   {meanMS(d, httpHist, `route="GET /v1/sweeps/{id}"`), "ms"},
		"server_result_ms": {meanMS(d, httpHist, `route="GET /v1/sweeps/{id}/result"`), "ms"},
		// Engine: waiting for a worker and running, per executed cell. A
		// fused member's run is its group's whole pass.
		"engine_queue_wait_ms": {meanMS(d, "jettyd_engine_queue_wait_seconds", ""), "ms"},
		"engine_run_ms":        {meanMS(d, runHist, ""), "ms"},
		// Simulator: host time per simulated reference of a fused pass.
		"sim_ns_per_ref": {ratio(1e9*d.sum(runHist+"_sum", ""), execRefs), "ns"},
		// Work done per sweep.
		"cells_executed_per_sweep": {ratio(d.sum("jettyd_engine_executed_total", ""), sweeps), "count"},
		// Cluster hop, per sweep (zero off the cluster topology).
		"cluster_dispatches_per_sweep": {ratio(d.sum("jettyd_cluster_cells_dispatched_total", ""), sweeps), "count"},
		// Durable store: the same traffic with -data-dir. The engine run
		// includes the write-through of every result, so its excess over
		// engine_run_ms is the store's cost per fused pass.
		"durable_sweep_p50_ms":   {median(lat), "ms"},
		"durable_engine_run_ms":  {meanMS(dd, runHist, ""), "ms"},
		"store_writes_per_sweep": {ratio(dd.sum("jettyd_store_writes_total", ""), float64(len(durable))), "count"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
