package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Every request is one 16-cell sweep: the Lu workload on the paper's
// machine across a 16-variant filter axis in "each" mode, which the
// service fuses onto one simulation pass (the shape PERFORMANCE.md's
// fused-sweep benchmark measures in-process). One application keeps
// the latency distribution unimodal, so its quantiles are steady.
const app = "Lu"

var filters = []string{
	"EJ-32x4", "EJ-32x2", "EJ-16x4", "EJ-16x2", "EJ-8x4", "EJ-8x2",
	"VEJ-32x4-8", "VEJ-32x4-4", "VEJ-16x4-8", "VEJ-16x4-4",
	"IJ-10x4x7", "IJ-9x4x7", "IJ-8x4x7", "IJ-7x5x6", "IJ-6x5x6",
	"HJ(IJ-10x4x7,EJ-32x4)",
}

const (
	// A cell simulates cellRefs+offset references, offset < offsets, so
	// no two specs of a run share a content address and the cache cannot
	// answer; the largest offset stretches a cell by 4%. Lu's access
	// budget at scale 1 is luRefs; the half reference keeps the scaled
	// budget's truncation clear of float rounding.
	cellRefs = 100_000
	offsets  = 4096
	luRefs   = 1_000_000

	pollInterval   = 2 * time.Millisecond
	requestTimeout = 60 * time.Second
)

// sweepSpec is the POST /v1/sweeps body.
type sweepSpec struct {
	Workloads  []string `json:"workloads"`
	Filters    []string `json:"filters"`
	FilterMode string   `json:"filter_mode"`
	Scale      float64  `json:"scale"`
}

// specs hands out distinct sweep specs in a seed-determined order: the
// k-th spec's size offset is the k-th entry of a seed-shuffled
// permutation, so every seed does the same amount of work on average
// and no two specs of a run share a cell.
type specs struct {
	perm []int
	next atomic.Int64
}

func newSpecs(seed int64) *specs {
	r := rand.New(rand.NewPCG(uint64(seed), 0x6a657474792d6232))
	return &specs{perm: r.Perm(offsets)}
}

func (g *specs) fresh() sweepSpec {
	off := g.perm[int(g.next.Add(1)-1)%offsets]
	return sweepSpec{
		Workloads:  []string{app},
		Filters:    filters,
		FilterMode: "each",
		Scale:      (cellRefs + float64(off) + 0.5) / luRefs,
	}
}

// status is the part of a sweep status the client reads.
type status struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cells     int    `json:"cells"`
	CacheHits int    `json:"cache_hits"`
	Total     uint64 `json:"total"`
}

func (s status) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// sweepResult is the part of a finished sweep's result the client checks.
type sweepResult struct {
	Metrics []metric `json:"metrics"`
}

// sample is one closed-loop request: a sweep from POST to fetched result.
type sample struct {
	spec       sweepSpec
	tenant     string
	start, end time.Time
	cells      int
	execRefs   float64 // references the daemons simulated for it (cells not answered from cache)
	metrics    []metric
	err        error
}

var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: 64,
	DisableCompression:  true,
}}

// client is one closed-loop caller under its own tenant.
type client struct {
	base   string
	tenant string
	tracer *tracer // nil unless the run is traced
}

// call performs one JSON request and decodes a 2xx reply into out.
func (c *client) call(ctx context.Context, req int64, span, method, url string, body []byte, out any) error {
	defer c.tracer.span(req, span, time.Now())
	r, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	r.Header.Set("X-Jetty-Tenant", c.tenant)
	if body != nil {
		r.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpClient.Do(r)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// sweep runs one request to completion: submit, poll until the sweep is
// terminal, fetch the result.
func (c *client) sweep(ctx context.Context, req int64, spec sweepSpec) sample {
	s := sample{spec: spec, tenant: c.tenant, start: time.Now()}
	defer func() { c.tracer.span(req, "sweep", s.start) }()
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	body, err := json.Marshal(spec)
	if err != nil {
		s.err = err
		return s
	}
	var st status
	if s.err = c.call(ctx, req, "submit", http.MethodPost, c.base+"/v1/sweeps", body, &st); s.err != nil {
		return s
	}
	for !st.terminal() {
		select {
		case <-ctx.Done():
			s.err = fmt.Errorf("sweep %s: %w", st.ID, ctx.Err())
			return s
		case <-time.After(pollInterval):
		}
		if s.err = c.call(ctx, req, "poll", http.MethodGet, c.base+"/v1/sweeps/"+st.ID, nil, &st); s.err != nil {
			return s
		}
	}
	if st.State != "done" {
		s.err = fmt.Errorf("sweep %s ended %s", st.ID, st.State)
		return s
	}
	var res sweepResult
	if s.err = c.call(ctx, req, "result", http.MethodGet, c.base+"/v1/sweeps/"+st.ID+"/result", nil, &res); s.err != nil {
		return s
	}
	s.end = time.Now()
	s.cells = st.Cells
	if st.Cells > 0 {
		s.execRefs = float64(st.Total) * float64(st.Cells-st.CacheHits) / float64(st.Cells)
	}
	s.metrics = res.Metrics
	return s
}

// phase runs every client in a closed loop — each sends its next sweep
// only once the previous one has returned — until d has elapsed, then
// waits for the requests in flight. gen hands out the specs; v checks
// each result as it arrives; reqs numbers the requests.
func phase(ctx context.Context, clients []*client, d time.Duration, gen *specs, v *verifier, reqs *atomic.Int64) []sample {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for ctx.Err() == nil && time.Now().Before(deadline) {
				s := c.sweep(ctx, reqs.Add(1), gen.fresh())
				v.check(c, &s)
				if s.err != nil {
					time.Sleep(pollInterval) // a dead daemon must not turn the loop into a spin
				}
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}
