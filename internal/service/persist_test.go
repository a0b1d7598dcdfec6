package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"jetty/internal/store"
	"jetty/internal/sweep"
)

// newDurableServer is newTestServer over a durable store rooted at dir.
// It does NOT register cleanup for the server — restart tests close and
// rebuild servers explicitly.
func newDurableServer(t *testing.T, dir string, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

func resumeSpec() sweep.Spec {
	return sweep.Spec{
		Name:       "resume",
		Workloads:  []string{"Lu", "ch"},
		Filters:    []string{"EJ-32x4", "EJ-16x2", "EJ-8x2"},
		FilterMode: sweep.ModeEach,
		Scale:      0.05,
	}
}

// TestRestartResumesSweep is the tentpole's kill-and-restart
// differential test at the service layer: a durable daemon is torn down
// mid-sweep, a fresh daemon over the same data directory re-admits the
// journaled sweep under its original ID, serves the already-computed
// cells from disk, and finishes with metrics DeepEqual to an
// uninterrupted control run.
func TestRestartResumesSweep(t *testing.T) {
	dir := t.TempDir()
	spec := resumeSpec()

	// Control: the same spec, uninterrupted, on an in-memory server.
	_, ctrlBase := newTestServer(t, Options{Workers: 2})
	var ctrlSt SweepStatus
	if code := doJSON(t, "POST", ctrlBase+"/v1/sweeps", spec, &ctrlSt); code != http.StatusAccepted {
		t.Fatalf("control submit code %d", code)
	}
	waitSweepDone(t, ctrlBase, ctrlSt.ID)
	var ctrlRes SweepResult
	doJSON(t, "GET", ctrlBase+"/v1/sweeps/"+ctrlSt.ID+"/result", nil, &ctrlRes)

	// Durable daemon #1: submit, wait until at least one cell finished
	// (so the restart provably skips recomputation), then tear it down
	// abruptly — in-flight cells die canceled, the journal entry stays.
	s1, ts1 := newDurableServer(t, dir, Options{Workers: 2})
	var st1 SweepStatus
	if code := doJSON(t, "POST", ts1.URL+"/v1/sweeps", spec, &st1); code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st SweepStatus
		doJSON(t, "GET", ts1.URL+"/v1/sweeps/"+st1.ID, nil, &st)
		if st.Finished >= 1 {
			break
		}
		if st.State == "done" || time.Now().After(deadline) {
			break // tiny cells may all finish first; resume still holds
		}
		time.Sleep(5 * time.Millisecond)
	}
	ts1.Close()
	s1.Close()

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	persisted := st.Stats().Results
	if persisted < 1 {
		t.Fatalf("no results persisted before the restart")
	}
	if len(st.Jobs()) != 1 {
		t.Fatalf("journal holds %d entries at restart, want 1", len(st.Jobs()))
	}

	// Durable daemon #2 over the same directory: restore re-admits the
	// sweep under its original ID before the listener is even up.
	s2 := New(Options{Workers: 2, Store: st})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close()
	}()

	fin := waitSweepDone(t, ts2.URL, st1.ID)
	if fin.State != "done" {
		t.Fatalf("resumed sweep state %q, want done", fin.State)
	}
	var res2 SweepResult
	if code := doJSON(t, "GET", ts2.URL+"/v1/sweeps/"+st1.ID+"/result", nil, &res2); code != http.StatusOK {
		t.Fatalf("resumed result code %d", code)
	}
	if !reflect.DeepEqual(ctrlRes.Metrics, res2.Metrics) {
		t.Fatalf("resumed sweep metrics diverged from the uninterrupted control run")
	}

	// The persisted cells were served from disk, not recomputed: the new
	// engine reports store hits, and it executed at most the cells that
	// were NOT yet on disk at kill time.
	est := s2.eng.Stats()
	if est.StoreHits < uint64(persisted) {
		t.Errorf("StoreHits = %d, want >= %d (the persisted cells)", est.StoreHits, persisted)
	}
	cells, err := spec.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if max := uint64(len(cells) - persisted); est.Executed > max {
		t.Errorf("Executed = %d after restart, want <= %d (persisted cells must not recompute)", est.Executed, max)
	}

	// The finished sweep's journal entry is retired (poll: the watcher
	// notices completion within its poll interval).
	deadline = time.Now().Add(10 * time.Second)
	for len(st.Jobs()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("journal still holds %d entries after completion", len(st.Jobs()))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestartRestoresTracesAndExperiments: uploaded traces and journaled
// experiments survive a restart — the trace is listed and replayable,
// the experiment resumes under its original ID.
func TestRestartRestoresTracesAndExperiments(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newDurableServer(t, dir, Options{Workers: 2})
	data := recordTestTrace(t, "WebServer", 4, 2000)
	info, code := uploadTrace(t, ts1.URL, data)
	if code != http.StatusCreated {
		t.Fatalf("upload code %d", code)
	}
	var exp ExperimentStatus
	if code := doJSON(t, "POST", ts1.URL+"/v1/experiments",
		SubmitRequest{Trace: info.Digest}, &exp); code != http.StatusAccepted {
		t.Fatalf("replay submit code %d", code)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newDurableServer(t, dir, Options{Workers: 2})
	defer func() {
		ts2.Close()
		s2.Close()
	}()

	var got TraceInfo
	if code := doJSON(t, "GET", ts2.URL+"/v1/traces/"+info.Digest, nil, &got); code != http.StatusOK {
		t.Fatalf("restored trace lookup code %d", code)
	}
	if got.Digest != info.Digest || got.Records != info.Records {
		t.Fatalf("restored trace %+v, want %+v", got, info)
	}
	fin := waitDone(t, ts2.URL, exp.ID)
	if fin.State != "done" {
		t.Fatalf("restored experiment state %q, want done", fin.State)
	}
}

// TestRestoreDiscardsTornJournal: a truncated journal record is
// discarded individually at boot — the valid entry next to it restores,
// the damaged one is deleted from the store, and the daemon serves.
func TestRestoreDiscardsTornJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(jobJournal{
		ID:   "swp-000001",
		Kind: jobKindSweep,
		Spec: &sweep.Spec{Name: "ok", Workloads: []string{"Lu"}, Filters: []string{"EJ-16x2"}, Scale: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob("swp-000001", good); err != nil {
		t.Fatal(err)
	}
	// A torn write: valid JSON prefix, truncated mid-object.
	if err := st.PutJob("swp-000002", good[:len(good)/2]); err != nil {
		t.Fatal(err)
	}
	// And a journal whose ID disagrees with its filename.
	if err := st.PutJob("swp-000003", []byte(`{"id":"swp-000099","kind":"sweep"}`)); err != nil {
		t.Fatal(err)
	}

	s := New(Options{Workers: 1, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	fin := waitSweepDone(t, ts.URL, "swp-000001")
	if fin.State != "done" {
		t.Fatalf("restored sweep state %q, want done", fin.State)
	}
	for _, id := range []string{"swp-000002", "swp-000003"} {
		if code := doJSON(t, "GET", ts.URL+"/v1/sweeps/"+id, nil, nil); code != http.StatusNotFound {
			t.Errorf("torn journal %s restored (code %d), want 404", id, code)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(st.Jobs()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("store still journals %d jobs; torn entries not discarded", len(st.Jobs()))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// New submissions must not collide with the restored ID space.
	var st2 SweepStatus
	if code := doJSON(t, "POST", ts.URL+"/v1/sweeps",
		sweep.Spec{Name: "next", Workloads: []string{"Lu"}, Filters: []string{"EJ-16x2"}, Scale: 0.02},
		&st2); code != http.StatusAccepted {
		t.Fatalf("post-restore submit code %d", code)
	}
	if st2.ID <= "swp-000003" {
		t.Errorf("post-restore sweep ID %s collides with restored ID space", st2.ID)
	}
}

// TestRestoreExperimentJournalRecord: an experiment journal record in
// the request format restores under its original ID, tenant and origin,
// and finishes with the result a live submission of the same request
// gets.
func TestRestoreExperimentJournalRecord(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := SubmitRequest{Apps: []string{"Lu", "ch"}, Scale: 0.02, Filters: []string{"EJ-16x2"}, Interval: 4096}
	rec := `{"id":"exp-000007","kind":"experiment","tenant":"alice","origin":"req-7",` +
		`"request":{"apps":["Lu","ch"],"scale":0.02,"filters":["EJ-16x2"],"interval":4096}}`
	if err := st.PutJob("exp-000007", []byte(rec)); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 2, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	fin := waitDone(t, ts.URL, "exp-000007")
	if fin.State != "done" || fin.Tenant != "alice" || fin.Jobs[0].Origin != "req-7" {
		t.Fatalf("restored experiment %s for tenant %q, origin %q; want done for alice, req-7",
			fin.State, fin.Tenant, fin.Jobs[0].Origin)
	}
	var restored, live ExperimentResult
	doJSON(t, "GET", ts.URL+"/v1/experiments/exp-000007/result", nil, &restored)

	_, base := newTestServer(t, Options{Workers: 2})
	var lst ExperimentStatus
	doJSON(t, "POST", base+"/v1/experiments", req, &lst)
	waitDone(t, base, lst.ID)
	doJSON(t, "GET", base+"/v1/experiments/"+lst.ID+"/result", nil, &live)
	live.ID = restored.ID
	if !reflect.DeepEqual(restored, live) || len(restored.Results) != 2 {
		t.Error("restored experiment's result differs from a live submission's")
	}
}
