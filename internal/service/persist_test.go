package service

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
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

	// The journal mirrors the registry: the finished sweep is still
	// registered, so its entry stays.
	if got := journalIDs(st); !slices.Equal(got, []string{st1.ID}) {
		t.Fatalf("journal holds %v after completion, want [%s] (the registered sweep)", got, st1.ID)
	}
}

// journalIDs returns the store's journaled job IDs, sorted.
func journalIDs(st *store.Store) []string {
	return slices.Sorted(maps.Keys(st.Jobs()))
}

// registryIDs returns the server's registered job IDs, sorted.
func registryIDs(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(slices.Values(s.order))
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
	if got := journalIDs(s2.store); !slices.Equal(got, []string{exp.ID}) {
		t.Fatalf("journal holds %v once the experiment is done, want [%s]", got, exp.ID)
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
	// The torn entries are gone; the valid one stays while registered.
	if got := journalIDs(st); !slices.Equal(got, []string{"swp-000001"}) {
		t.Fatalf("store journals %v, want [swp-000001]", got)
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

// TestJournalMirrorsRegistry: the journal holds exactly the jobs the
// registry holds, at every submission's return, with no wait. A restart
// brings the retained finished job back under its ID, served from the
// stored cells without executing, and the evicted ID stays forgotten.
func TestJournalMirrorsRegistry(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, Options{Workers: 2, MaxRetained: 1})

	var sw SweepStatus
	if code := doJSON(t, "POST", ts1.URL+"/v1/sweeps",
		sweep.Spec{Name: "first", Workloads: []string{"Lu"}, Filters: []string{"EJ-16x2"}, Scale: 0.02}, &sw); code != http.StatusAccepted {
		t.Fatalf("sweep submit code %d", code)
	}
	if got, want := journalIDs(s1.store), registryIDs(s1); !slices.Equal(got, want) {
		t.Fatalf("after the sweep's submission the journal holds %v, the registry %v", got, want)
	}
	waitSweepDone(t, ts1.URL, sw.ID)

	var exp ExperimentStatus
	if code := doJSON(t, "POST", ts1.URL+"/v1/experiments",
		SubmitRequest{Apps: []string{"ch"}, Scale: 0.02, Filters: []string{"EJ-32x4"}}, &exp); code != http.StatusAccepted {
		t.Fatalf("experiment submit code %d", code)
	}
	if got, want := journalIDs(s1.store), registryIDs(s1); !slices.Equal(got, want) || !slices.Equal(got, []string{exp.ID}) {
		t.Fatalf("after the experiment's submission the journal holds %v, the registry %v; want [%s] (the finished sweep evicted)",
			got, want, exp.ID)
	}
	if fin := waitDone(t, ts1.URL, exp.ID); fin.State != "done" {
		t.Fatalf("experiment ended %s", fin.State)
	}
	var before ExperimentResult
	if code := doJSON(t, "GET", ts1.URL+"/v1/experiments/"+exp.ID+"/result", nil, &before); code != http.StatusOK {
		t.Fatalf("result code %d", code)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newDurableServer(t, dir, Options{Workers: 2, MaxRetained: 1})
	defer func() {
		ts2.Close()
		s2.Close()
	}()
	if fin := waitDone(t, ts2.URL, exp.ID); fin.State != "done" {
		t.Fatalf("restored experiment ended %s", fin.State)
	}
	var after ExperimentResult
	if code := doJSON(t, "GET", ts2.URL+"/v1/experiments/"+exp.ID+"/result", nil, &after); code != http.StatusOK {
		t.Fatalf("restored result code %d", code)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("the restored experiment's result differs from the one served before the restart")
	}
	if n := s2.eng.Stats().Executed; n != 0 {
		t.Errorf("restart executed %d cells, want 0 (every cell is stored)", n)
	}
	if code := doJSON(t, "GET", ts2.URL+"/v1/sweeps/"+sw.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("evicted sweep %s answers %d after the restart, want 404", sw.ID, code)
	}
}

// TestRestoreKeepsSubmissionOrder: journaled jobs come back in the order
// they were submitted, across both endpoint families and past six
// digits, so the registry evicts the older one first.
func TestRestoreKeepsSubmissionOrder(t *testing.T) {
	for _, tc := range []struct{ older, newer string }{
		{"swp-000001", "exp-000002"},
		{"swp-999999", "swp-1000000"},
	} {
		t.Run(tc.older+"<"+tc.newer, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{tc.older, tc.newer} {
				rec := jobJournal{ID: id, Kind: jobKindSweep,
					Spec: &sweep.Spec{Workloads: []string{"Lu"}, Filters: []string{"EJ-16x2"}, Scale: 0.02}}
				if jobPath(id) == "/v1/experiments/" {
					rec = jobJournal{ID: id, Kind: jobKindExperiment,
						Request: &SubmitRequest{Apps: []string{"Lu"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}}
				}
				data, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.PutJob(id, data); err != nil {
					t.Fatal(err)
				}
			}
			s := New(Options{Workers: 1, Store: st, MaxRetained: 2})
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				s.Close()
			}()
			for _, id := range []string{tc.older, tc.newer} {
				s.mu.Lock()
				j := s.jobs[id]
				s.mu.Unlock()
				<-j.sw.Done()
			}
			var next SweepStatus
			if code := doJSON(t, "POST", ts.URL+"/v1/sweeps",
				sweep.Spec{Workloads: []string{"ch"}, Filters: []string{"EJ-16x2"}, Scale: 0.02}, &next); code != http.StatusAccepted {
				t.Fatalf("submit code %d", code)
			}
			if code := doJSON(t, "GET", ts.URL+jobPath(tc.older)+tc.older, nil, nil); code != http.StatusNotFound {
				t.Errorf("older job %s answers %d, want 404 (evicted first)", tc.older, code)
			}
			if code := doJSON(t, "GET", ts.URL+jobPath(tc.newer)+tc.newer, nil, nil); code != http.StatusOK {
				t.Errorf("newer job %s answers %d, want 200 (retained)", tc.newer, code)
			}
			if got, want := journalIDs(st), registryIDs(s); !slices.Equal(got, want) {
				t.Errorf("journal holds %v, the registry %v", got, want)
			}
		})
	}
}

// jobPath is the endpoint family prefix that serves a job ID.
func jobPath(id string) string {
	if id[:3] == "exp" {
		return "/v1/experiments/"
	}
	return "/v1/sweeps/"
}

// TestTenantTraceQuotaReportsHeldCount: a daemon restarted with a lower
// per-tenant trace cap than a tenant already holds rejects the next
// upload with 429, and the message gives the tenant's real count, not
// the cap.
func TestTenantTraceQuotaReportsHeldCount(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, Options{Workers: 1})
	for _, app := range []string{"Lu", "ch"} {
		if _, code := uploadTrace(t, ts1.URL, recordTestTrace(t, app, 2, 300)); code != http.StatusCreated {
			t.Fatalf("upload of %s: code %d", app, code)
		}
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newDurableServer(t, dir, Options{Workers: 1, MaxTracesPerTenant: 1})
	defer func() {
		ts2.Close()
		s2.Close()
	}()
	resp, err := http.Post(ts2.URL+"/v1/traces", "application/octet-stream",
		bytes.NewReader(recordTestTrace(t, "WebServer", 2, 300)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third upload: code %d (%s), want 429", resp.StatusCode, body.Error)
	}
	if !strings.Contains(body.Error, "holds 2 stored traces") || !strings.Contains(body.Error, "per-tenant cap 1") {
		t.Errorf("429 message %q, want the tenant's 2 traces and the cap of 1", body.Error)
	}
}
