package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jetty/internal/obs"
	"jetty/internal/sweep"
)

// syncBuffer is a goroutine-safe log sink: the slog handler writes from
// handler goroutines and engine workers while tests read.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logRecords parses the buffer as JSON lines, failing the test on any
// line that is not valid JSON (the satellite-4 contract: the access log
// is machine-parseable line by line).
func logRecords(t *testing.T, buf *syncBuffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v: %q", err, line)
		}
		out = append(out, rec)
	}
	return out
}

// TestRequestIDPropagation is the end-to-end tracing contract: the ID
// the response header carries is the ID in the access-log record and
// the origin in the submitted job's status JSON, alongside the timing
// breakdown.
func TestRequestIDPropagation(t *testing.T) {
	var buf syncBuffer
	log, err := obs.NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	_, base := newTestServer(t, Options{Workers: 2, Logger: log})

	// Every response carries X-Request-Id — matched routes, 404s, errors.
	var submitID string
	for _, probe := range []struct {
		method, path, body string
		wantInbound        string
	}{
		{"GET", "/healthz", "", ""},
		{"GET", "/no/such/route", "", ""},
		{"GET", "/v1/experiments/exp-999999", "", ""},
		{"GET", "/metrics", "", "proxy-assigned-id-123"},
		{"POST", "/v1/experiments", `{"apps":["Lu"],"scale":0.02,"filters":["EJ-16x2"]}`, ""},
	} {
		req, err := http.NewRequest(probe.method, base+probe.path, strings.NewReader(probe.body))
		if err != nil {
			t.Fatal(err)
		}
		if probe.wantInbound != "" {
			req.Header.Set("X-Request-Id", probe.wantInbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			t.Errorf("%s %s: no X-Request-Id on response", probe.method, probe.path)
		}
		if probe.wantInbound != "" && id != probe.wantInbound {
			t.Errorf("%s %s: inbound ID not honored: got %q", probe.method, probe.path, id)
		}
		if probe.method == "POST" {
			submitID = id
		}
	}

	// An oversized inbound ID is replaced, not echoed.
	req, _ := http.NewRequest("GET", base+"/healthz", nil)
	req.Header.Set("X-Request-Id", strings.Repeat("x", maxRequestIDLen+1))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); strings.Contains(id, "xxx") {
		t.Errorf("oversized inbound X-Request-Id echoed back: %q", id)
	}

	// The submitted job's status JSON carries the submit request's ID as
	// origin, plus the lifecycle timing breakdown once executed.
	var list []ExperimentStatus
	doJSON(t, "GET", base+"/v1/experiments", nil, &list)
	if len(list) != 1 {
		t.Fatalf("want 1 experiment, got %d", len(list))
	}
	st := waitDone(t, base, list[0].ID)
	if st.State != "done" {
		t.Fatalf("experiment state %s", st.State)
	}
	job := st.Jobs[0]
	if job.Origin != submitID {
		t.Errorf("job origin %q != submit request ID %q", job.Origin, submitID)
	}
	if job.Disposition != "executed" {
		t.Errorf("job disposition %q, want executed", job.Disposition)
	}
	if job.RunMS <= 0 {
		t.Errorf("job run_ms %v, want > 0", job.RunMS)
	}

	// The access log has one valid-JSON record per request, and the
	// submit request's record carries the same ID.
	recs := logRecords(t, &buf)
	var sawSubmit, sawUnmatched bool
	for _, rec := range recs {
		if rec["msg"] != "request" {
			continue
		}
		for _, k := range []string{"id", "method", "path", "route", "status", "bytes", "duration_ms"} {
			if _, ok := rec[k]; !ok {
				t.Errorf("access-log record missing %q: %v", k, rec)
			}
		}
		if rec["id"] == submitID {
			sawSubmit = true
			if rec["route"] != "POST /v1/experiments" {
				t.Errorf("submit record route %v", rec["route"])
			}
			if rec["status"] != float64(http.StatusAccepted) {
				t.Errorf("submit record status %v", rec["status"])
			}
		}
		if rec["path"] == "/no/such/route" {
			sawUnmatched = true
			if rec["route"] != "unmatched" {
				t.Errorf("404 record route %v, want unmatched", rec["route"])
			}
		}
	}
	if !sawSubmit {
		t.Errorf("no access-log record with the submit request ID %q", submitID)
	}
	if !sawUnmatched {
		t.Error("no access-log record for the unmatched route")
	}
}

// TestSlowJobLogging wires the threshold to ~zero so every executed job
// is "slow", and checks the warn record correlates back to the
// submitting request via origin.
func TestSlowJobLogging(t *testing.T) {
	var buf syncBuffer
	log, err := obs.NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	_, base := newTestServer(t, Options{Workers: 1, Logger: log, SlowJob: time.Nanosecond})

	req, _ := http.NewRequest("POST", base+"/v1/experiments",
		strings.NewReader(`{"apps":["Lu"],"scale":0.02,"filters":["EJ-16x2"]}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st ExperimentStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	submitID := resp.Header.Get("X-Request-Id")
	waitDone(t, base, st.ID)

	// The retire hook fires just after the job turns terminal; poll
	// briefly rather than racing it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var found bool
		for _, rec := range logRecords(t, &buf) {
			if rec["msg"] == "slow job" {
				found = true
				if rec["origin"] != submitID {
					t.Fatalf("slow-job origin %v != submit ID %q", rec["origin"], submitID)
				}
				if rec["kind"] != "workload" {
					t.Errorf("slow-job kind %v, want workload", rec["kind"])
				}
				if ms, ok := rec["run_ms"].(float64); !ok || ms <= 0 {
					t.Errorf("slow-job run_ms %v", rec["run_ms"])
				}
			}
		}
		if found {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow-job record; log:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsMonotoneAcrossScrapes is the satellite-3 check run against
// the live service: two scrapes around real load both lint clean, no
// counter or histogram series goes backwards, and the scrape exposes
// the tentpole instrument families.
func TestMetricsMonotoneAcrossScrapes(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 2})

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	var st ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments",
		SubmitRequest{Apps: []string{"Lu"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}, &st)
	waitDone(t, base, st.ID)

	before := scrape()
	if problems := obs.Lint(before); len(problems) != 0 {
		t.Fatalf("first scrape fails lint: %v", problems)
	}

	// More load between the scrapes: a second submission of the same
	// experiment (cache hit) and a distinct one (fresh execution).
	doJSON(t, "POST", base+"/v1/experiments",
		SubmitRequest{Apps: []string{"Lu"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}, &st)
	waitDone(t, base, st.ID)
	doJSON(t, "POST", base+"/v1/experiments",
		SubmitRequest{Apps: []string{"Ocean"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}, &st)
	waitDone(t, base, st.ID)

	after := scrape()
	if problems := obs.Lint(after); len(problems) != 0 {
		t.Fatalf("second scrape fails lint: %v", problems)
	}
	if problems := obs.CheckMonotone(before, after); len(problems) != 0 {
		t.Errorf("counters went backwards between scrapes: %v", problems)
	}

	exp, err := obs.ParseText(after)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		// Tentpole histogram families.
		"jettyd_http_request_duration_seconds",
		"jettyd_engine_queue_wait_seconds",
		"jettyd_engine_run_duration_seconds",
		"jettyd_sweep_cell_duration_seconds",
		"jettyd_live_fanout_lag_seconds",
		// New saturation gauges.
		"jettyd_engine_queue_depth",
		"jettyd_engine_inflight",
		"jettyd_admission_occupancy",
		"jettyd_live_feed_windows_buffered",
		"jettyd_jobs_unfinished",
		// Stream memo.
		"jettyd_stream_memo_hits_total",
		"jettyd_stream_memo_misses_total",
		"jettyd_stream_memo_bytes",
		// Build info.
		"jettyd_build_info",
	} {
		if _, ok := exp.Meta[fam]; !ok {
			t.Errorf("scrape missing family %s", fam)
		}
	}

	// The engine histograms saw the executed jobs.
	var sawRun bool
	for _, s := range exp.Samples {
		if s.Name == "jettyd_engine_run_duration_seconds_count" && s.Labels["kind"] == "workload" && s.Value > 0 {
			sawRun = true
		}
	}
	if !sawRun {
		t.Error("run-duration histogram recorded no workload executions")
	}
}

// TestSweepCellTracing checks the per-cell timing breakdown and the
// sweep-cell histogram: a sweep's status JSON carries the submitting
// request's ID as each cell's origin, executed cells report run
// durations, and the scrape records them under kind="sweep".
func TestSweepCellTracing(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 2})

	req, err := http.NewRequest("POST", base+"/v1/sweeps",
		strings.NewReader(`{"workloads":["Lu"],"filters":["EJ-16x2"],"scale":0.02}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit code %d", resp.StatusCode)
	}
	submitID := resp.Header.Get("X-Request-Id")
	if submitID == "" {
		t.Fatal("sweep submit response missing X-Request-Id")
	}

	done := waitSweepDone(t, base, st.ID)
	if done.State != "done" {
		t.Fatalf("sweep state %s", done.State)
	}
	cell := done.Cell[0]
	if cell.Origin != submitID {
		t.Errorf("cell origin %q != submit X-Request-Id %q", cell.Origin, submitID)
	}
	if cell.Disposition != "executed" {
		t.Errorf("cell disposition %q, want executed", cell.Disposition)
	}
	if cell.RunMS <= 0 {
		t.Errorf("cell run_ms %v, want > 0", cell.RunMS)
	}

	// The retire hook fires just after the cell's job turns terminal.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body := string(b)
		if strings.Contains(body, `jettyd_engine_run_duration_seconds_count{kind="sweep",tenant="anonymous"} 1`) &&
			!strings.Contains(body, "jettyd_sweep_cell_duration_seconds_count 0") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep-cell histograms not recorded; scrape:\n%s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFusedSweepCellsObserved: every cell of an "each"-mode sweep
// retires as a member of one fused group, and each one is an executed
// sweep cell the cell-duration histogram must count.
func TestFusedSweepCellsObserved(t *testing.T) {
	srv, base := newTestServer(t, Options{Workers: 2})
	before := srv.tel.sweepCell.Count()

	var st SweepStatus
	if code := doJSON(t, "POST", base+"/v1/sweeps", map[string]any{
		"workloads":   []string{"Lu"},
		"filters":     []string{"EJ-16x2", "EJ-32x4"},
		"filter_mode": "each",
		"scale":       0.02,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("sweep submit code %d", code)
	}
	if done := waitSweepDone(t, base, st.ID); done.State != "done" {
		t.Fatalf("sweep state %s", done.State)
	}
	// The retire hook fires just after the cells' jobs turn terminal.
	deadline := time.Now().Add(5 * time.Second)
	for srv.tel.sweepCell.Count() != before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep cell count %d, want %d", srv.tel.sweepCell.Count(), before+2)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHealthzDraining checks the readiness flip: draining answers 503
// so load balancers stop routing, and the state is visible in the body
// and the jettyd_draining gauge.
func TestHealthzDraining(t *testing.T) {
	s, base := newTestServer(t, Options{Workers: 1})

	var health map[string]any
	if code := doJSON(t, "GET", base+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz code %d before draining", code)
	}
	if health["state"] != "ready" {
		t.Errorf("state %v, want ready", health["state"])
	}

	s.SetDraining(true)
	if code := doJSON(t, "GET", base+"/healthz", nil, &health); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz code %d while draining, want 503", code)
	}
	if health["state"] != "draining" || health["ok"] != false {
		t.Errorf("draining body %v", health)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "jettyd_draining 1") {
		t.Error("jettyd_draining gauge not 1 while draining")
	}

	s.SetDraining(false)
	if code := doJSON(t, "GET", base+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz code %d after draining cleared", code)
	}
}

func TestBuildInfoEndpoint(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})
	var bi obs.BuildInfo
	if code := doJSON(t, "GET", base+"/buildinfo", nil, &bi); code != http.StatusOK {
		t.Fatalf("buildinfo code %d", code)
	}
	if bi.GoVersion == "" || bi.Version == "" {
		t.Errorf("incomplete build info: %+v", bi)
	}
}

// TestPprofGate checks the profiler mounts only behind Options.Pprof.
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(off + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Options{Workers: 1, Pprof: true})
	resp, err = http.Get(on + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
}

// memoMetricsRuns counts TestStreamMemoMetrics runs in this process.
var memoMetricsRuns atomic.Int64

// TestStreamMemoMetrics pins the stream memo's instruments. With the
// engine cache off, two identical sweeps both simulate, and the second
// replays the stream the first generated: one miss, then one hit.
func TestStreamMemoMetrics(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1, CacheEntries: -1})
	value := func(name string) float64 {
		t.Helper()
		exp, err := obs.ParseText(scrapeMetrics(t, base))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range exp.Samples {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("scrape has no %s sample", name)
		return 0
	}
	const (
		hits   = "jettyd_stream_memo_hits_total"
		misses = "jettyd_stream_memo_misses_total"
		size   = "jettyd_stream_memo_bytes"
	)
	// A phased stream's key keeps its length, so at a scale no earlier
	// run in this process used (a rerun under -count moves it) the
	// first sweep cannot find its stream memoized.
	scale := 0.0137 + 0.0001*float64(memoMetricsRuns.Add(1))
	spec := sweep.Spec{Workloads: []string{"PhasedOLTP"}, Filters: []string{"EJ-16x2"}, Scale: scale}
	h0, m0 := value(hits), value(misses)
	for i, want := range []struct{ hits, misses float64 }{{0, 1}, {1, 1}} {
		var st SweepStatus
		if code := doJSON(t, "POST", base+"/v1/sweeps", spec, &st); code != http.StatusAccepted {
			t.Fatalf("sweep %d: submit code %d", i, code)
		}
		if st := waitSweepDone(t, base, st.ID); st.State != "done" {
			t.Fatalf("sweep %d ended %s", i, st.State)
		}
		if dh, dm := value(hits)-h0, value(misses)-m0; dh != want.hits || dm != want.misses {
			t.Fatalf("after sweep %d: %v hits, %v misses; want %v, %v", i, dh, dm, want.hits, want.misses)
		}
		if value(size) <= 0 {
			t.Fatalf("after sweep %d: the memo holds no bytes", i)
		}
	}
}
