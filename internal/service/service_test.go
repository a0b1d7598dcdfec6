package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jetty/internal/trace"
	"jetty/internal/workload"
)

// newTestServer returns a running service and its base URL.
func newTestServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

// doJSON performs one request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// waitDone polls an experiment until it reaches a terminal state.
func waitDone(t *testing.T, base, id string) ExperimentStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st ExperimentStatus
		if code := doJSON(t, "GET", base+"/v1/experiments/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("status code %d", code)
		}
		switch st.State {
		case "done", "failed", "canceled":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("experiment %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHealthAndCatalogEndpoints(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})

	var health map[string]any
	if code := doJSON(t, "GET", base+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz code %d", code)
	}
	if health["ok"] != true {
		t.Errorf("healthz = %v", health)
	}

	var wls []map[string]any
	doJSON(t, "GET", base+"/v1/workloads", nil, &wls)
	if want := 10 + len(workload.Scenarios()); len(wls) != want { // the full library
		t.Errorf("workloads = %d entries, want %d", len(wls), want)
	}

	var filters []string
	doJSON(t, "GET", base+"/v1/filters", nil, &filters)
	if len(filters) == 0 {
		t.Error("no filter configurations listed")
	}
}

func TestSubmitPollFetchRoundTrip(t *testing.T) {
	_, base := newTestServer(t, Options{})

	req := SubmitRequest{
		Apps:    []string{"Lu", "ch"},
		Scale:   0.02,
		Filters: []string{"EJ-32x4", "HJ(IJ-9x4x7,EJ-32x4)"},
	}
	var st ExperimentStatus
	if code := doJSON(t, "POST", base+"/v1/experiments", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	if st.ID == "" || len(st.Jobs) != 2 {
		t.Fatalf("submit status = %+v", st)
	}
	if st.Jobs[0].App != "Lu" || st.Jobs[0].Key == "" {
		t.Errorf("job 0 = %+v", st.Jobs[0])
	}

	final := waitDone(t, base, st.ID)
	if final.State != "done" || final.Fraction != 1 {
		t.Fatalf("final status = %+v", final)
	}

	var res ExperimentResult
	if code := doJSON(t, "GET", base+"/v1/experiments/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result code %d", code)
	}
	if len(res.Results) != 2 {
		t.Fatalf("results = %d entries", len(res.Results))
	}
	if res.Results[0].Spec.Name != "Lu" || res.Results[1].Spec.Name != "Cholesky" {
		t.Errorf("result order: %s, %s", res.Results[0].Spec.Name, res.Results[1].Spec.Name)
	}
	if res.Results[0].Refs == 0 || len(res.Results[0].Coverage) != 2 {
		t.Errorf("result 0 incomplete: %+v", res.Results[0])
	}
	for _, key := range []string{"table2", "table3", "coverage"} {
		if res.Tables[key] == "" {
			t.Errorf("missing rendered table %q", key)
		}
	}
	if !strings.Contains(res.Tables["coverage"], "EJ-32x4") {
		t.Errorf("coverage table lacks the requested filter:\n%s", res.Tables["coverage"])
	}

	// Listing includes the experiment.
	var list []ExperimentStatus
	doJSON(t, "GET", base+"/v1/experiments", nil, &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %+v", list)
	}
}

func TestResultBeforeDoneConflicts(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})

	// A large budget keeps the run in flight long enough to observe 409.
	req := SubmitRequest{Apps: []string{"Lu"}, Scale: 50, Filters: []string{"EJ-8x2"}}
	var st ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", req, &st)

	var conflict map[string]any
	if code := doJSON(t, "GET", base+"/v1/experiments/"+st.ID+"/result", nil, &conflict); code != http.StatusConflict {
		t.Fatalf("result-before-done code %d, want 409", code)
	}
	if code := doJSON(t, "DELETE", base+"/v1/experiments/"+st.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel code %d", code)
	}
	if code := doJSON(t, "GET", base+"/v1/experiments/"+st.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status after cancel = %d, want 404", code)
	}
}

func TestIdenticalExperimentsShareWork(t *testing.T) {
	s, base := newTestServer(t, Options{})

	req := SubmitRequest{Apps: []string{"Lu"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}
	var first ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", req, &first)
	waitDone(t, base, first.ID)

	var second ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", req, &second)
	final := waitDone(t, base, second.ID)
	if final.State != "done" {
		t.Fatalf("second experiment = %+v", final)
	}
	if !final.Jobs[0].CacheHit {
		t.Error("identical resubmission should be a cache hit")
	}
	if st := s.eng.Stats(); st.CacheHits == 0 {
		t.Errorf("engine stats show no cache hits: %+v", st)
	}

	// Both must serve the same result bytes.
	var r1, r2 ExperimentResult
	doJSON(t, "GET", base+"/v1/experiments/"+first.ID+"/result", nil, &r1)
	doJSON(t, "GET", base+"/v1/experiments/"+second.ID+"/result", nil, &r2)
	b1, _ := json.Marshal(r1.Results)
	b2, _ := json.Marshal(r2.Results)
	if !bytes.Equal(b1, b2) {
		t.Error("cached experiment returned different results")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})

	cases := []SubmitRequest{
		{Apps: []string{"NoSuchApp"}},
		{Filters: []string{"XX-1x1"}},
		{Scale: -1},
		{Scale: 1e15}, // would overflow the access-budget conversion
		{CPUs: 9999},
		{Apps: make([]string, 1000)}, // over the list cap
	}
	for _, req := range cases {
		var errBody map[string]string
		if code := doJSON(t, "POST", base+"/v1/experiments", req, &errBody); code != http.StatusBadRequest {
			t.Errorf("request %+v: code %d, want 400", req, code)
		}
		if errBody["error"] == "" {
			t.Errorf("request %+v: no error message", req)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(base+"/v1/experiments", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body code %d", resp.StatusCode)
	}
}

func TestAdmissionCap(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1, MaxUnfinished: 1})

	// Occupy the single worker with a long run.
	long := SubmitRequest{Apps: []string{"Lu"}, Scale: 50, Filters: []string{"EJ-8x2"}}
	var first ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", long, &first)

	// The *global* cap means the daemon is saturated: 503, not the
	// per-tenant quota's 429.
	var rejected map[string]string
	if code := doJSON(t, "POST", base+"/v1/experiments", long, &rejected); code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap submit code %d, want 503", code)
	}
	doJSON(t, "DELETE", base+"/v1/experiments/"+first.ID, nil, nil)
}

func TestFinishedExperimentsAreEvicted(t *testing.T) {
	_, base := newTestServer(t, Options{MaxRetained: 2})

	req := SubmitRequest{Apps: []string{"Lu"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}
	var ids []string
	for i := 0; i < 4; i++ {
		var st ExperimentStatus
		if code := doJSON(t, "POST", base+"/v1/experiments", req, &st); code != http.StatusAccepted {
			t.Fatalf("submit %d code %d", i, code)
		}
		waitDone(t, base, st.ID)
		ids = append(ids, st.ID)
	}

	var list []ExperimentStatus
	doJSON(t, "GET", base+"/v1/experiments", nil, &list)
	if len(list) != 2 {
		t.Fatalf("registry holds %d experiments, want 2 (MaxRetained)", len(list))
	}
	// The oldest were evicted, the newest survive and still serve results.
	if code := doJSON(t, "GET", base+"/v1/experiments/"+ids[0], nil, nil); code != http.StatusNotFound {
		t.Errorf("oldest experiment code %d, want 404 after eviction", code)
	}
	var res ExperimentResult
	if code := doJSON(t, "GET", base+"/v1/experiments/"+ids[3]+"/result", nil, &res); code != http.StatusOK {
		t.Errorf("newest experiment result code %d", code)
	}
}

func TestUnknownExperiment(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/experiments/exp-999999"},
		{"GET", "/v1/experiments/exp-999999/result"},
		{"DELETE", "/v1/experiments/exp-999999"},
	} {
		if code := doJSON(t, probe.method, base+probe.path, nil, nil); code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", probe.method, probe.path, code)
		}
	}
}

// clientJSON is doJSON for non-test goroutines: it returns errors
// instead of calling t.Fatal.
func clientJSON(method, url string, body any, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func TestManyConcurrentClients(t *testing.T) {
	_, base := newTestServer(t, Options{})

	// Ten clients submitting overlapping small experiments: exercises the
	// registry and the engine's dedup under the race detector.
	apps := []string{"Lu", "ch", "ff"}
	run := func(c int) error {
		req := SubmitRequest{
			Apps:    []string{apps[c%len(apps)]},
			Scale:   0.02,
			Filters: []string{"EJ-16x2"},
		}
		var st ExperimentStatus
		code, err := clientJSON("POST", base+"/v1/experiments", req, &st)
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("client %d: submit code %d err %v", c, code, err)
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			var cur ExperimentStatus
			if code, err := clientJSON("GET", base+"/v1/experiments/"+st.ID, nil, &cur); err != nil || code != http.StatusOK {
				return fmt.Errorf("client %d: status code %d err %v", c, code, err)
			}
			if cur.State == "done" {
				break
			}
			if cur.State == "failed" || cur.State == "canceled" {
				return fmt.Errorf("client %d: state %s", c, cur.State)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("client %d: timed out in %s", c, cur.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
		var res ExperimentResult
		if code, err := clientJSON("GET", base+"/v1/experiments/"+st.ID+"/result", nil, &res); err != nil || code != http.StatusOK {
			return fmt.Errorf("client %d: result code %d err %v", c, code, err)
		}
		if len(res.Results) != 1 || res.Results[0].Refs == 0 {
			return fmt.Errorf("client %d: bad result", c)
		}
		return nil
	}

	done := make(chan error, 10)
	for c := 0; c < 10; c++ {
		go func(c int) { done <- run(c) }(c)
	}
	for c := 0; c < 10; c++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// uploadTrace posts raw trace bytes and returns the decoded TraceInfo.
func uploadTrace(t *testing.T, base string, data []byte) (TraceInfo, int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info TraceInfo
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return info, resp.StatusCode
}

// recordTestTrace exports a small workload trace as raw file bytes.
func recordTestTrace(t *testing.T, app string, cpus int, perCPU uint64) []byte {
	t.Helper()
	sp, err := workload.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opts := trace.WriterOptions{Compress: true, Meta: trace.Meta{App: sp.Name}}
	if _, err := trace.Record(&buf, sp.Source(cpus), uint64(cpus)*perCPU, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceUploadReplayRoundTrip(t *testing.T) {
	_, base := newTestServer(t, Options{})
	data := recordTestTrace(t, "WebServer", 4, 5000)

	info, code := uploadTrace(t, base, data)
	if code != http.StatusCreated {
		t.Fatalf("upload code %d", code)
	}
	if info.Digest == "" || info.CPUs != 4 || info.Records != 20000 || !info.Compressed {
		t.Fatalf("upload info = %+v", info)
	}

	// Identical re-upload: 200, same digest, no second slot.
	again, code := uploadTrace(t, base, data)
	if code != http.StatusOK || again.Digest != info.Digest {
		t.Fatalf("re-upload: code %d info %+v", code, again)
	}
	var list []TraceInfo
	doJSON(t, "GET", base+"/v1/traces", nil, &list)
	if len(list) != 1 {
		t.Fatalf("trace list has %d entries", len(list))
	}

	// Replay it with a filter bank.
	req := SubmitRequest{Trace: info.Digest, Filters: []string{"EJ-32x4"}}
	var st ExperimentStatus
	if code := doJSON(t, "POST", base+"/v1/experiments", req, &st); code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].App != "WebServer" || st.Jobs[0].Total != 20000 {
		t.Fatalf("jobs = %+v", st.Jobs)
	}
	final := waitDone(t, base, st.ID)
	if final.State != "done" {
		t.Fatalf("final = %+v", final)
	}
	var res ExperimentResult
	if code := doJSON(t, "GET", base+"/v1/experiments/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result code %d", code)
	}
	if len(res.Results) != 1 || res.Results[0].Refs != 20000 {
		t.Fatalf("replay result = %+v", res.Results)
	}
	if len(res.Results[0].Coverage) != 1 {
		t.Errorf("replay measured %d filters", len(res.Results[0].Coverage))
	}

	// A second replay of the same trace+config is a cache hit.
	var st2 ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", req, &st2)
	if st2.Jobs[0].Key != st.Jobs[0].Key {
		t.Errorf("replay keys differ: %s vs %s", st2.Jobs[0].Key, st.Jobs[0].Key)
	}
	if final := waitDone(t, base, st2.ID); final.State != "done" {
		t.Errorf("second replay = %+v", final)
	}

	// Delete frees the slot.
	var del map[string]string
	if code := doJSON(t, "DELETE", base+"/v1/traces/"+info.Digest, nil, &del); code != http.StatusOK {
		t.Fatalf("delete code %d", code)
	}
	doJSON(t, "GET", base+"/v1/traces", nil, &list)
	if len(list) != 0 {
		t.Errorf("trace list has %d entries after delete", len(list))
	}
}

func TestTraceUploadValidation(t *testing.T) {
	_, base := newTestServer(t, Options{MaxTraces: 1})

	if _, code := uploadTrace(t, base, []byte("not a trace")); code != http.StatusBadRequest {
		t.Errorf("garbage upload code %d", code)
	}

	// Unknown digest in a submit.
	var errBody map[string]any
	if code := doJSON(t, "POST", base+"/v1/experiments", SubmitRequest{Trace: "feed"}, &errBody); code != http.StatusBadRequest {
		t.Errorf("unknown trace submit code %d", code)
	}

	// Store cap.
	first := recordTestTrace(t, "tp", 2, 500)
	if _, code := uploadTrace(t, base, first); code != http.StatusCreated {
		t.Fatalf("first upload rejected")
	}
	second := recordTestTrace(t, "Ocean", 2, 500)
	if _, code := uploadTrace(t, base, second); code != http.StatusInsufficientStorage {
		t.Errorf("over-cap upload code %d", code)
	}

	// apps+trace and scale+trace are rejected; narrow machines too.
	info, _ := uploadTrace(t, base, first) // 200: already stored
	for _, req := range []SubmitRequest{
		{Trace: info.Digest, Apps: []string{"Barnes"}},
		{Trace: info.Digest, Scale: 0.5},
		{Trace: info.Digest, CPUs: 1},
	} {
		if code := doJSON(t, "POST", base+"/v1/experiments", req, &errBody); code != http.StatusBadRequest {
			t.Errorf("submit %+v: code %d, want 400", req, code)
		}
	}
}
