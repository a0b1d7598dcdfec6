package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jetty/internal/obs"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  string
}

// readSSE consumes a text/event-stream body until EOF (the server closes
// after the done event) or maxEvents, returning the parsed events.
func readSSE(t *testing.T, body io.Reader, maxEvents int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
			if len(out) >= maxEvents {
				return out
			}
		}
	}
	return out
}

// timelineWindows sums the window counts of a timeline response.
func timelineWindows(tr TimelineResponse) int {
	n := 0
	for _, a := range tr.Apps {
		if a.Timeline != nil {
			n += len(a.Timeline.Windows)
		}
	}
	return n
}

func TestTimelineEndpointRoundTrip(t *testing.T) {
	_, base := newTestServer(t, Options{})

	req := SubmitRequest{
		Apps:     []string{"Lu", "ch"},
		Scale:    0.02,
		Filters:  []string{"EJ-32x4", "HJ(IJ-9x4x7,EJ-32x4)"},
		Interval: 1024,
	}
	var st ExperimentStatus
	if code := doJSON(t, "POST", base+"/v1/experiments", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	waitDone(t, base, st.ID)

	var tr TimelineResponse
	if code := doJSON(t, "GET", base+"/v1/experiments/"+st.ID+"/timeline", nil, &tr); code != http.StatusOK {
		t.Fatalf("timeline code %d", code)
	}
	if tr.ID != st.ID || tr.Interval != 1024 || len(tr.Apps) != 2 {
		t.Fatalf("timeline = %+v", tr)
	}
	var res ExperimentResult
	doJSON(t, "GET", base+"/v1/experiments/"+st.ID+"/result", nil, &res)
	for i, a := range tr.Apps {
		if a.Timeline == nil || len(a.Timeline.Windows) == 0 {
			t.Fatalf("app %s: empty timeline", a.App)
		}
		if len(a.Timeline.FilterNames) != 2 {
			t.Errorf("app %s: filter names %v", a.App, a.Timeline.FilterNames)
		}
		// Conservation holds across the HTTP boundary too.
		refs, counts, _ := a.Timeline.Sum()
		if refs != res.Results[i].Refs || counts != res.Results[i].Counts {
			t.Errorf("app %s: served timeline does not conserve the served result", a.App)
		}
	}

	// The experiment's own result is identical to an unsampled run of
	// the same request (sampling is observation only).
	plain := req
	plain.Interval = 0
	var pst ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", plain, &pst)
	waitDone(t, base, pst.ID)
	var pres ExperimentResult
	doJSON(t, "GET", base+"/v1/experiments/"+pst.ID+"/result", nil, &pres)
	for i := range pres.Results {
		if pres.Results[i].Counts != res.Results[i].Counts || pres.Results[i].Refs != res.Results[i].Refs {
			t.Errorf("sampled experiment drifted from unsampled on %s", pres.Results[i].Spec.Name)
		}
	}

	// Unsampled experiments have no timeline to serve.
	var errBody map[string]any
	if code := doJSON(t, "GET", base+"/v1/experiments/"+pst.ID+"/timeline", nil, &errBody); code != http.StatusBadRequest {
		t.Errorf("timeline of unsampled experiment = %d, want 400", code)
	}
	if code := doJSON(t, "GET", base+"/v1/experiments/exp-999999/timeline", nil, nil); code != http.StatusNotFound {
		t.Errorf("timeline of unknown experiment = %d, want 404", code)
	}
}

func TestSubmitIntervalValidation(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})
	cases := []SubmitRequest{
		{Apps: []string{"Lu"}, Interval: 8},               // below the minimum
		{Apps: []string{"Lu"}, Scale: 100, Interval: 64},  // window-count cap
		{Apps: []string{"Lu"}, Scale: 0.02, Interval: 63}, // just below the minimum
	}
	for _, req := range cases {
		var errBody map[string]string
		if code := doJSON(t, "POST", base+"/v1/experiments", req, &errBody); code != http.StatusBadRequest {
			t.Errorf("request %+v: code %d, want 400", req, code)
		}
	}
}

// liveStream opens the SSE endpoint and returns the parsed events (up to
// maxEvents, or all until the server closes the stream).
func liveStream(t *testing.T, base, id string, maxEvents int) []sseEvent {
	t.Helper()
	resp, err := http.Get(base + "/v1/experiments/" + id + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("live content-type %q", ct)
	}
	return readSSE(t, resp.Body, maxEvents)
}

func TestLiveStreamDeliversAllWindows(t *testing.T) {
	_, base := newTestServer(t, Options{})

	req := SubmitRequest{Apps: []string{"Lu"}, Scale: 0.05, Filters: []string{"EJ-32x4"}, Interval: 512}
	var st ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", req, &st)

	events := liveStream(t, base, st.ID, 1<<20)
	if len(events) == 0 || events[len(events)-1].event != "done" {
		t.Fatalf("stream of %d events did not end with done", len(events))
	}
	var windows int
	var sawEnergy bool
	for _, ev := range events[:len(events)-1] {
		if ev.event != "window" {
			t.Fatalf("unexpected event %q", ev.event)
		}
		var le struct {
			App    string          `json:"app"`
			Index  int             `json:"index"`
			Window json.RawMessage `json:"window"`
		}
		if err := json.Unmarshal([]byte(ev.data), &le); err != nil {
			t.Fatalf("window event payload: %v", err)
		}
		if le.App != "Lu" || len(le.Window) == 0 {
			t.Fatalf("window event = %+v", le)
		}
		// Live windows carry the same energy breakdown retained ones do.
		var win struct {
			Energy struct{ SnoopTag, LocalTag float64 } `json:"energy"`
		}
		if err := json.Unmarshal(le.Window, &win); err != nil {
			t.Fatal(err)
		}
		if win.Energy.SnoopTag > 0 || win.Energy.LocalTag > 0 {
			sawEnergy = true
		}
		windows++
	}
	if !sawEnergy {
		t.Error("no live window carried a nonzero energy breakdown")
	}

	// Exactly the finished timeline's windows, no more, no less.
	var tr TimelineResponse
	if code := doJSON(t, "GET", base+"/v1/experiments/"+st.ID+"/timeline", nil, &tr); code != http.StatusOK {
		t.Fatalf("timeline code %d", code)
	}
	if want := timelineWindows(tr); windows != want {
		t.Errorf("stream delivered %d windows, timeline holds %d", windows, want)
	}
	if windows == 0 {
		t.Error("no windows streamed")
	}

	// A second, identical experiment is a cache hit: no sampler hook ever
	// fires for it, yet its stream must still deliver the full sequence
	// (top-up from the retained timeline) — with byte-identical window
	// payloads, so live and topped-up subscribers never disagree.
	var st2 ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", req, &st2)
	events2 := liveStream(t, base, st2.ID, 1<<20)
	var data1, data2 []string
	for _, ev := range events[:len(events)-1] {
		data1 = append(data1, ev.data)
	}
	for _, ev := range events2 {
		if ev.event == "window" {
			data2 = append(data2, ev.data)
		}
	}
	if len(data2) != len(data1) {
		t.Fatalf("cache-hit stream delivered %d windows, first run %d", len(data2), len(data1))
	}
	for i := range data1 {
		if data1[i] != data2[i] {
			t.Fatalf("window %d differs between live and topped-up delivery:\n live  %s\n topup %s",
				i, data1[i], data2[i])
		}
	}
}

// TestLiveStreamDuplicateApp: an experiment listing an app twice plans
// both runs into one fused unit, where the second coalesces onto the
// first. The executing run streams live, its twin is topped up from the
// retained timeline, and the stream delivers every window of both
// entries before done.
func TestLiveStreamDuplicateApp(t *testing.T) {
	srv, base := newTestServer(t, Options{})

	req := SubmitRequest{Apps: []string{"Lu", "Lu"}, Scale: 0.05, Filters: []string{"EJ-32x4"}, Interval: 512}
	var st ExperimentStatus
	if code := doJSON(t, "POST", base+"/v1/experiments", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	if final := waitDone(t, base, st.ID); final.State != "done" {
		t.Fatalf("experiment ended %s", final.State)
	}
	// Before any subscriber tops the feed up, it holds what the run
	// streamed live: one entry's windows.
	srv.mu.Lock()
	live := srv.jobs[st.ID].feed.buffered()
	srv.mu.Unlock()

	events := liveStream(t, base, st.ID, 1<<20)
	if len(events) == 0 || events[len(events)-1].event != "done" {
		t.Fatalf("stream of %d events did not end with done", len(events))
	}
	byIndex := map[int][]string{}
	for _, ev := range events[:len(events)-1] {
		if ev.event != "window" {
			t.Fatalf("unexpected event %q", ev.event)
		}
		var le struct {
			App    string          `json:"app"`
			Index  int             `json:"index"`
			Window json.RawMessage `json:"window"`
		}
		if err := json.Unmarshal([]byte(ev.data), &le); err != nil {
			t.Fatalf("window event payload: %v", err)
		}
		if le.App != "Lu" {
			t.Fatalf("window event for app %q", le.App)
		}
		byIndex[le.Index] = append(byIndex[le.Index], string(le.Window))
	}

	var tr TimelineResponse
	if code := doJSON(t, "GET", base+"/v1/experiments/"+st.ID+"/timeline", nil, &tr); code != http.StatusOK {
		t.Fatalf("timeline code %d", code)
	}
	if len(tr.Apps) != 2 || tr.Apps[0].Timeline == nil || tr.Apps[1].Timeline == nil {
		t.Fatalf("timeline holds %d apps, want 2 with timelines", len(tr.Apps))
	}
	perEntry := len(tr.Apps[0].Timeline.Windows)
	if perEntry == 0 || len(byIndex) != perEntry || timelineWindows(tr) != 2*perEntry {
		t.Fatalf("stream covers %d window indices, timeline holds %d per entry (%d in all)",
			len(byIndex), perEntry, timelineWindows(tr))
	}
	if live != perEntry {
		t.Errorf("the run streamed %d windows live, want %d (the executing entry's)", live, perEntry)
	}
	for i, wins := range byIndex {
		if len(wins) != 2 || wins[0] != wins[1] {
			t.Errorf("window %d streamed %d times, want twice with identical payloads", i, len(wins))
		}
	}
}

func TestLiveStreamUnsampledAndCanceled(t *testing.T) {
	_, base := newTestServer(t, Options{})

	// Unsampled: a bare done event once finished.
	var st ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", SubmitRequest{Apps: []string{"Lu"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}, &st)
	events := liveStream(t, base, st.ID, 1<<20)
	if len(events) != 1 || events[0].event != "done" {
		t.Fatalf("unsampled stream = %+v", events)
	}

	// Canceled mid-run: the stream still terminates with done (state
	// canceled), never hangs. The stream is attached (headers received)
	// before the cancel so the race always resolves to an open stream.
	long := SubmitRequest{Apps: []string{"Fmm"}, Scale: 20, Filters: []string{"EJ-8x2"}, Interval: 4096}
	var st2 ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", long, &st2)
	resp2, err := http.Get(base + "/v1/experiments/" + st2.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("live code %d", resp2.StatusCode)
	}
	doJSON(t, "DELETE", base+"/v1/experiments/"+st2.ID, nil, nil)
	events = readSSE(t, resp2.Body, 1<<20)
	if len(events) == 0 || events[len(events)-1].event != "done" {
		t.Fatalf("canceled stream did not close with done: %+v", events)
	}
	var final ExperimentStatus
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "canceled" {
		t.Errorf("done event carries state %q, want canceled", final.State)
	}

	// Unknown experiment: 404, no stream.
	resp, err := http.Get(base + "/v1/experiments/exp-999999/live")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("live on unknown experiment = %d, want 404", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, base := newTestServer(t, Options{Workers: 1})

	// Drive a little traffic so counters move.
	var st ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", SubmitRequest{Apps: []string{"Lu"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}, &st)
	waitDone(t, base, st.ID)

	// Unit-level: the handler itself, via httptest recorder.
	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics code %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP jettyd_experiments_submitted_total",
		"# TYPE jettyd_experiments_submitted_total counter",
		"jettyd_experiments_submitted_total 1",
		"jettyd_experiments_registered 1",
		"jettyd_jobs_unfinished 0",
		"jettyd_traces_stored 0",
		"jettyd_live_subscribers 0",
		"jettyd_engine_workers 1",
		"# TYPE jettyd_engine_executed_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output lacks %q:\n%s", want, body)
		}
	}

	// The whole exposition passes the in-repo promlint: HELP/TYPE on
	// every family, counters suffixed _total, histogram buckets
	// cumulative with +Inf == count.
	for _, p := range obs.Lint(body) {
		t.Errorf("promlint: %s", p)
	}

	// And over HTTP through the mux.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "jettyd_engine_submitted_total") {
		t.Errorf("GET /metrics = %d\n%s", resp.StatusCode, raw)
	}
}

// TestMetricsCountersTrackLiveStreams pins the live-stream gauges: a
// subscriber shows up in jettyd_live_subscribers while attached and the
// streamed-window counter advances.
func TestMetricsCountersTrackLiveStreams(t *testing.T) {
	s, base := newTestServer(t, Options{})
	req := SubmitRequest{Apps: []string{"Lu"}, Scale: 0.02, Filters: []string{"EJ-16x2"}, Interval: 512}
	var st ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", req, &st)
	events := liveStream(t, base, st.ID, 1<<20)
	if len(events) < 2 {
		t.Fatalf("expected windows + done, got %d events", len(events))
	}
	if got := s.tel.windowsStreamed.Value(); got == 0 {
		t.Error("windowsStreamed did not advance")
	}
	if got := s.tel.liveSubscribers.Value(); got != 0 {
		t.Errorf("liveSubscribers = %v after stream closed", got)
	}
}

// ExperimentStatus/Interval round-trip: the submitted interval is echoed
// in the timeline and enforced on the pinned minimum via the sweep
// endpoint too.
func TestSweepTimelineOverHTTP(t *testing.T) {
	_, base := newTestServer(t, Options{})
	spec := map[string]any{
		"workloads": []string{"Lu"},
		"filters":   []string{"EJ-16x2"},
		"scale":     0.02,
		"interval":  1024,
		"timelines": "all",
	}
	var st SweepStatus
	if code := doJSON(t, "POST", base+"/v1/sweeps", spec, &st); code != http.StatusAccepted {
		t.Fatalf("sweep submit code %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur SweepStatus
		doJSON(t, "GET", base+"/v1/sweeps/"+st.ID, nil, &cur)
		if cur.State == "done" {
			break
		}
		if cur.State == "failed" || cur.State == "canceled" {
			t.Fatalf("sweep state %s", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var res SweepResult
	if code := doJSON(t, "GET", base+"/v1/sweeps/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("sweep result code %d", code)
	}
	if len(res.Timelines) != 1 || res.Timelines[0].Timeline == nil || len(res.Timelines[0].Timeline.Windows) == 0 {
		t.Fatalf("sweep timelines = %+v", res.Timelines)
	}

	// Retention policies that need sampling are rejected without it.
	bad := map[string]any{"workloads": []string{"Lu"}, "timelines": "all"}
	var errBody map[string]string
	if code := doJSON(t, "POST", base+"/v1/sweeps", bad, &errBody); code != http.StatusBadRequest {
		t.Errorf("retention without interval = %d, want 400", code)
	}
}
