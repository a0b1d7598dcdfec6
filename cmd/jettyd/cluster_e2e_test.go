package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"jetty/internal/obs"
	"jetty/internal/service"
)

// TestClusterEndToEnd is the cluster smoke CI runs: it builds the real
// jettyd binary, boots one coordinator over two worker processes,
// drives a sweep through the coordinator's ordinary API, SIGKILLs one
// worker mid-flight, and requires the sweep to complete anyway with a
// lint-clean /metrics exposition. Three real processes, real sockets,
// a real kill — no harness shims.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots three daemon processes")
	}
	bin := filepath.Join(t.TempDir(), "jettyd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building jettyd: %v\n%s", err, out)
	}

	freeAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	workerAddrs := []string{freeAddr(), freeAddr()}
	coordAddr := freeAddr()

	start := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = io.Discard
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	var workers []*exec.Cmd
	for _, addr := range workerAddrs {
		workers = append(workers, start("-role", "worker", "-addr", addr, "-workers", "2"))
	}
	start("-role", "coordinator", "-addr", coordAddr,
		"-cluster-workers", "http://"+workerAddrs[0]+",http://"+workerAddrs[1],
		"-cluster-probe-interval", "100ms")

	client := &http.Client{Timeout: 10 * time.Second}
	waitReady := func(addr string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := client.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon at %s not ready", addr)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for _, addr := range workerAddrs {
		waitReady(addr)
	}
	waitReady(coordAddr)
	base := "http://" + coordAddr

	// A sweep big enough to still be in flight when the kill lands:
	// each-mode fused units across repeats, at a scale that runs for
	// seconds, not milliseconds.
	body := `{"name":"e2e","workloads":["Lu","Fmm"],"filters":["EJ-32x4","EJ-16x2"],` +
		`"filter_mode":"each","repeat":4,"scale":2}`
	resp, err := client.Post(base+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	poll := func() service.SweepStatus {
		t.Helper()
		resp, err := client.Get(base + "/v1/sweeps/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cur service.SweepStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		return cur
	}

	// SIGKILL one worker the moment the sweep is demonstrably running —
	// no drain, no goodbye, exactly what a crashed machine looks like.
	killDeadline := time.Now().Add(30 * time.Second)
	for {
		cur := poll()
		if cur.State == "running" || cur.Finished > 0 {
			break
		}
		if cur.State == "done" {
			t.Log("sweep finished before the kill; completion still verified")
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatalf("sweep never started running (state %s)", cur.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := workers[0].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	doneDeadline := time.Now().Add(120 * time.Second)
	for {
		cur := poll()
		if cur.State == "done" {
			if cur.Fraction != 1 {
				t.Fatalf("done with fraction %v", cur.Fraction)
			}
			break
		}
		if cur.State == "failed" || cur.State == "canceled" {
			t.Fatalf("sweep ended %s after worker kill", cur.State)
		}
		if time.Now().After(doneDeadline) {
			t.Fatalf("sweep stuck in %s after worker kill", cur.State)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The result endpoint serves the folded sweep.
	resp, err = client.Get(base + "/v1/sweeps/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res service.SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	// Each-mode: one metric per (workload, filter, repeat) cell.
	if want := 2 * 2 * 4; len(res.Metrics) != want {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), want)
	}

	// The coordinator's exposition carries the cluster instruments and
	// passes the in-repo promlint.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scrape := string(b)
	if problems := obs.Lint(scrape); len(problems) != 0 {
		t.Fatalf("coordinator scrape fails lint: %v", problems)
	}
	for _, want := range []string{
		"jettyd_cluster_workers_configured 2",
		"jettyd_cluster_cells_dispatched_total",
		"jettyd_cluster_workers_alive",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %s", want)
		}
	}

	// The cluster status endpoint has noticed the dead worker (unless
	// the sweep outran the kill, in which case liveness may lag).
	resp, err = client.Get(base + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var cst struct {
		WorkersConfigured int `json:"workers_configured"`
		CellsDispatched   int `json:"cells_dispatched"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cst.WorkersConfigured != 2 || cst.CellsDispatched == 0 {
		t.Errorf("cluster status = %+v", cst)
	}
}

// TestBuildClusterFlagValidation pins the role/worker flag matrix.
func TestBuildClusterFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		role, workers string
		engine        int // -workers
		wantErr       bool
	}{
		{"single", "", 0, false},
		{"worker", "", 0, false},
		{"coordinator", "http://localhost:1,http://localhost:2", 0, false},
		{"coordinator", "", 0, true},                   // coordinator needs workers
		{"single", "http://localhost:1", 0, true},      // workers need the role
		{"worker", "http://localhost:1", 0, true},      // a worker must not fan out
		{"conductor", "", 0, true},                     // unknown role
		{"coordinator", "::not-a-url::", 0, true},      // undialable worker
		{"coordinator", "http://localhost:1", 2, true}, // its engine size is the slot count
	} {
		co, err := buildCluster(tc.role, tc.workers, tc.engine, 0, 0, nil)
		if co != nil {
			co.Close()
		}
		if gotErr := err != nil; gotErr != tc.wantErr {
			t.Errorf("buildCluster(%q, %q, -workers %d): err %v, want error %v", tc.role, tc.workers, tc.engine, err, tc.wantErr)
		}
		if err == nil && tc.role == "coordinator" && co == nil {
			t.Errorf("buildCluster(%q, %q) returned no coordinator", tc.role, tc.workers)
		}
	}
}
