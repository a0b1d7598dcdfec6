package service

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"jetty/internal/cluster"
	"jetty/internal/obs"
	"jetty/internal/sweep"
)

// newClusterFleet boots n worker services plus a coordinator service
// wired over them, and returns the coordinator's base URL. The
// coordinator server owns the cluster.Coordinator (its Close closes
// it), so the usual newTestServer cleanup tears everything down.
func newClusterFleet(t *testing.T, n int) (coordBase string, workerBases []string) {
	t.Helper()
	var clients []*cluster.Client
	for i := 0; i < n; i++ {
		_, base := newTestServer(t, Options{Workers: 2, Role: "worker"})
		workerBases = append(workerBases, base)
		c, err := cluster.NewClient(base)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	co, err := cluster.New(cluster.Options{
		Workers:       clients,
		ProbeInterval: 25 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, coordBase = newTestServer(t, Options{Workers: 1, Cluster: co, Role: "coordinator"})
	return coordBase, workerBases
}

// TestClusterServerEndToEnd drives a sweep through a coordinator jettyd
// fronting two worker jettyds — the same /v1/sweeps surface a
// single-process daemon serves — and checks the folded result matches a
// plain daemon's, cell for cell.
func TestClusterServerEndToEnd(t *testing.T) {
	coordBase, _ := newClusterFleet(t, 2)
	_, plainBase := newTestServer(t, Options{Workers: 2})

	spec := sweep.Spec{
		Name:       "cluster-e2e",
		Workloads:  []string{"Lu", "ch"},
		Filters:    []string{"EJ-32x4", "EJ-16x2"},
		FilterMode: sweep.ModeEach,
		Repeat:     2,
		Scale:      0.02,
	}

	var st SweepStatus
	if code := doJSON(t, "POST", coordBase+"/v1/sweeps", spec, &st); code != http.StatusAccepted {
		t.Fatalf("cluster submit code %d", code)
	}
	final := waitSweepDone(t, coordBase, st.ID)
	if final.State != "done" || final.Fraction != 1 {
		t.Fatalf("cluster sweep final status %+v", final)
	}
	var clusterRes SweepResult
	if code := doJSON(t, "GET", coordBase+"/v1/sweeps/"+st.ID+"/result", nil, &clusterRes); code != http.StatusOK {
		t.Fatalf("cluster result code %d", code)
	}

	if code := doJSON(t, "POST", plainBase+"/v1/sweeps", spec, &st); code != http.StatusAccepted {
		t.Fatalf("plain submit code %d", code)
	}
	waitSweepDone(t, plainBase, st.ID)
	var plainRes SweepResult
	if code := doJSON(t, "GET", plainBase+"/v1/sweeps/"+st.ID+"/result", nil, &plainRes); code != http.StatusOK {
		t.Fatalf("plain result code %d", code)
	}

	if !reflect.DeepEqual(clusterRes.Metrics, plainRes.Metrics) {
		t.Errorf("cluster metrics diverge from single-process daemon:\ncluster %+v\nplain   %+v",
			clusterRes.Metrics, plainRes.Metrics)
	}
	if !reflect.DeepEqual(clusterRes.Tables, plainRes.Tables) {
		t.Error("cluster tables diverge from single-process daemon")
	}

	// The coordinator reports its cluster; a plain daemon answers 404.
	var cst cluster.Stats
	if code := doJSON(t, "GET", coordBase+"/v1/cluster/status", nil, &cst); code != http.StatusOK {
		t.Fatalf("cluster status code %d", code)
	}
	if cst.WorkersConfigured != 2 || len(cst.Workers) != 2 {
		t.Errorf("cluster status reports %d workers (rows %d), want 2", cst.WorkersConfigured, len(cst.Workers))
	}
	if cst.CellsDispatched == 0 {
		t.Error("cluster status shows zero dispatched cells after a sweep")
	}
	if code := doJSON(t, "GET", plainBase+"/v1/cluster/status", nil, nil); code != http.StatusNotFound {
		t.Errorf("plain daemon cluster status code %d, want 404", code)
	}

	// /healthz reports the role.
	var health map[string]any
	doJSON(t, "GET", coordBase+"/healthz", nil, &health)
	if health["role"] != "coordinator" {
		t.Errorf("coordinator healthz role = %v", health["role"])
	}
	doJSON(t, "GET", plainBase+"/healthz", nil, &health)
	if health["role"] != "single" {
		t.Errorf("plain healthz role = %v", health["role"])
	}
}

// TestClusterMetricsLintAndMonotone: the coordinator's /metrics carries
// the jettyd_cluster_* instruments, passes the in-repo promlint, and
// its counters never move backwards across scrapes racing a live sweep.
func TestClusterMetricsLintAndMonotone(t *testing.T) {
	coordBase, _ := newClusterFleet(t, 2)

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(coordBase + "/metrics")
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

	before := scrape()
	if problems := obs.Lint(before); len(problems) != 0 {
		t.Fatalf("coordinator scrape fails lint: %v", problems)
	}

	spec := sweep.Spec{
		Name:      "metrics",
		Workloads: []string{"Lu", "ch"},
		Filters:   []string{"EJ-16x2"},
		Repeat:    2,
		Scale:     0.02,
	}
	var st SweepStatus
	if code := doJSON(t, "POST", coordBase+"/v1/sweeps", spec, &st); code != http.StatusAccepted {
		t.Fatalf("submit code %d", code)
	}
	// Scrape while the sweep is in flight — the snapshot discipline must
	// hold mid-reschedule, not just at rest.
	mid := scrape()
	if problems := obs.CheckMonotone(before, mid); len(problems) != 0 {
		t.Errorf("counters went backwards mid-sweep: %v", problems)
	}
	waitSweepDone(t, coordBase, st.ID)
	after := scrape()
	if problems := obs.Lint(after); len(problems) != 0 {
		t.Fatalf("post-sweep scrape fails lint: %v", problems)
	}
	for _, pair := range [][2]string{{before, mid}, {mid, after}} {
		if problems := obs.CheckMonotone(pair[0], pair[1]); len(problems) != 0 {
			t.Errorf("counters went backwards across scrapes: %v", problems)
		}
	}
	for _, want := range []string{
		"jettyd_cluster_workers_configured 2",
		"jettyd_cluster_workers_alive",
		"jettyd_cluster_cells_dispatched_total",
		"jettyd_cluster_cells_rescheduled_total",
		"jettyd_engine_cache_hits_total",
		"jettyd_cluster_worker_cache_hits_total",
		"jettyd_cluster_cells_computed_total",
		`jettyd_cluster_worker_alive{worker="`,
		`jettyd_cluster_worker_cell_latency_ewma_seconds{worker="`,
	} {
		if !strings.Contains(after, want) {
			t.Errorf("coordinator scrape missing %s", want)
		}
	}
}

// TestCellsEndpoint exercises the worker surface directly: a valid unit
// answers the requested cells in order, malformed requests fail 400,
// and the tenant cell quota answers 429 before any work schedules.
func TestCellsEndpoint(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 2, Role: "worker"})

	spec := sweep.Spec{
		Workloads:  []string{"Lu", "ch"},
		Filters:    []string{"EJ-32x4", "EJ-16x2"},
		FilterMode: sweep.ModeEach,
		Scale:      0.02,
	}
	cells, err := spec.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}

	var resp cluster.CellsResponse
	req := cluster.CellsRequest{Spec: spec, Indices: []int{0, 2}}
	if code := doJSON(t, "POST", base+"/v1/cells", req, &resp); code != http.StatusOK {
		t.Fatalf("cells code %d", code)
	}
	if len(resp.Cells) != 2 {
		t.Fatalf("%d cell outcomes, want 2", len(resp.Cells))
	}
	for k, want := range []int{0, 2} {
		oc := resp.Cells[k]
		if oc.Index != want || oc.Key != cells[want].Key {
			t.Errorf("outcome %d = (index %d, key %s), want (index %d, key %s)",
				k, oc.Index, oc.Key, want, cells[want].Key)
		}
		if oc.Disposition == "" {
			t.Errorf("outcome %d has no disposition", k)
		}
	}

	for name, bad := range map[string]cluster.CellsRequest{
		"no indices":       {Spec: spec},
		"out of range":     {Spec: spec, Indices: []int{0, len(cells)}},
		"negative":         {Spec: spec, Indices: []int{-1}},
		"not ascending":    {Spec: spec, Indices: []int{2, 0}},
		"duplicate index":  {Spec: spec, Indices: []int{1, 1}},
		"invalid spec":     {Spec: sweep.Spec{}, Indices: []int{0}},
		"unknown workload": {Spec: sweep.Spec{Workloads: []string{"nope"}}, Indices: []int{0}},
	} {
		if code := doJSON(t, "POST", base+"/v1/cells", bad, nil); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, code)
		}
	}

	// The tenant cell quota fences the endpoint like any other
	// submission path.
	_, small := newTestServer(t, Options{Workers: 1, MaxQueuedCellsPerTenant: 1})
	if code := doJSON(t, "POST", small+"/v1/cells", req, nil); code != http.StatusTooManyRequests {
		t.Errorf("quota-limited cells code %d, want 429", code)
	}
}

// TestClusterRunsExperiments: an experiment sent to a coordinator shards
// its runs across the workers like any sweep, and its results, tables
// and live stream match a single-process daemon's.
func TestClusterRunsExperiments(t *testing.T) {
	coordBase, _ := newClusterFleet(t, 2)
	_, plainBase := newTestServer(t, Options{Workers: 2})

	req := SubmitRequest{Apps: []string{"Lu", "ch"}, Scale: 0.02, Filters: []string{"EJ-32x4", "EJ-16x2"}, Interval: 4096}
	run := func(base string) (ExperimentResult, []sseEvent) {
		t.Helper()
		var st ExperimentStatus
		if code := doJSON(t, "POST", base+"/v1/experiments", req, &st); code != http.StatusAccepted {
			t.Fatalf("submit code %d", code)
		}
		if final := waitDone(t, base, st.ID); final.State != "done" {
			t.Fatalf("experiment ended %s", final.State)
		}
		var res ExperimentResult
		if code := doJSON(t, "GET", base+"/v1/experiments/"+st.ID+"/result", nil, &res); code != http.StatusOK {
			t.Fatalf("result code %d", code)
		}
		return res, liveStream(t, base, st.ID, 1<<20)
	}
	clusterRes, clusterLive := run(coordBase)
	plainRes, _ := run(plainBase)
	if !reflect.DeepEqual(clusterRes.Results, plainRes.Results) || !reflect.DeepEqual(clusterRes.Tables, plainRes.Tables) {
		t.Error("coordinator experiment results or tables diverge from the single-process daemon's")
	}
	// No window hook fires on the coordinator: the live stream is topped
	// up from the retained timelines.
	windows := 0
	for _, r := range clusterRes.Results {
		windows += len(r.Timeline.Windows)
	}
	if got := len(clusterLive) - 1; got != windows || windows == 0 {
		t.Errorf("coordinator live stream delivered %d windows, timelines hold %d", got, windows)
	}

	var cst cluster.Stats
	if code := doJSON(t, "GET", coordBase+"/v1/cluster/status", nil, &cst); code != http.StatusOK {
		t.Fatalf("cluster status code %d", code)
	}
	if cst.CellsDispatched == 0 {
		t.Error("coordinator dispatched no cells for an experiment")
	}
}
