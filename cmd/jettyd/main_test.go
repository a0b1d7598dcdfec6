package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"jetty/internal/obs"
	"jetty/internal/service"
)

// TestJettydEndToEnd boots the real daemon (the same run() main uses),
// drives one experiment through it, scrapes /metrics twice around the
// load and lints both expositions, then shuts it down with the same
// SIGTERM an orchestrator would send. CI runs this as the live-scrape
// check.
func TestJettydEndToEnd(t *testing.T) {
	// Pick a free port. (Listen/close/reuse has a tiny race window, but
	// the test binary is the only thing binding ports in CI.)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	log, err := obs.NewLogger(io.Discard, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		errc <- run(service.Options{Workers: 2, Logger: log, Pprof: true}, addr,
			httpTimeouts{read: 2 * time.Minute, idle: 2 * time.Minute})
	}()

	base := "http://" + addr
	client := &http.Client{Timeout: 10 * time.Second}

	// Wait for the daemon to come up ready.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-errc:
			t.Fatalf("jettyd exited during startup: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("jettyd not ready at %s", base)
		}
		time.Sleep(20 * time.Millisecond)
	}

	scrape := func() string {
		t.Helper()
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Request-Id"); got == "" {
			t.Error("scrape response missing X-Request-Id")
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	before := scrape()
	if problems := obs.Lint(before); len(problems) != 0 {
		t.Fatalf("scrape fails lint: %v", problems)
	}

	// One real experiment through the live daemon.
	resp, err := client.Post(base+"/v1/experiments", "application/json",
		strings.NewReader(`{"apps":["Lu"],"scale":0.02,"filters":["EJ-16x2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var st service.ExperimentStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	submitID := resp.Header.Get("X-Request-Id")
	if submitID == "" {
		t.Fatal("submit response missing X-Request-Id")
	}

	for {
		resp, err := client.Get(base + "/v1/experiments/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur service.ExperimentStatus
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State == "done" {
			if cur.Jobs[0].Origin != submitID {
				t.Errorf("job origin %q != submit X-Request-Id %q", cur.Jobs[0].Origin, submitID)
			}
			break
		}
		if cur.State == "failed" || cur.State == "canceled" {
			t.Fatalf("experiment ended %s", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("experiment stuck in %s", cur.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	after := scrape()
	if problems := obs.Lint(after); len(problems) != 0 {
		t.Fatalf("post-load scrape fails lint: %v", problems)
	}
	if problems := obs.CheckMonotone(before, after); len(problems) != 0 {
		t.Errorf("counters went backwards across the run: %v", problems)
	}
	for _, want := range []string{
		"jettyd_http_request_duration_seconds_bucket",
		`jettyd_engine_run_duration_seconds_count{kind="workload",tenant="anonymous"}`,
		`jettyd_tenant_jobs_unfinished{tenant="anonymous"}`,
		"jettyd_engine_queue_depth",
		"jettyd_build_info",
	} {
		if !strings.Contains(after, want) {
			t.Errorf("scrape missing %s", want)
		}
	}

	// The -pprof mount serves on the live daemon.
	resp, err = client.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d", resp.StatusCode)
	}

	// Shut down exactly as an orchestrator would: SIGTERM, then the
	// daemon drains and run() returns nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run() returned %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("jettyd did not shut down after SIGTERM")
	}
}

// TestSSESurvivesIdleTimeout is the regression test for the server's
// connection-reaping knobs: IdleTimeout must reap an idle keep-alive
// connection, but must NOT sever an SSE live stream whose consumer reads
// slower than the idle deadline — the stream is an active response, and
// WriteTimeout is deliberately zero.
func TestSSESurvivesIdleTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	log, err := obs.NewLogger(io.Discard, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	const idle = 250 * time.Millisecond
	errc := make(chan error, 1)
	go func() {
		errc <- run(service.Options{Workers: 1, Logger: log}, addr,
			httpTimeouts{read: time.Second, idle: idle})
	}()

	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("jettyd not ready at %s", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The idle deadline is live: a keep-alive connection left idle after
	// one response is closed by the server.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: %s\r\n\r\n", addr)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("reading keep-alive response: %v", err)
	}
	// Drain until the server closes it (EOF) — must happen well past the
	// idle deadline but well before our read deadline.
	start := time.Now()
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	conn.Close()
	if waited := time.Since(start); waited > 4*time.Second {
		t.Errorf("idle connection not reaped (waited %v, idle timeout %v)", waited, idle)
	}

	// A sampled experiment whose run outlives the idle deadline many
	// times over, consumed slower than the deadline: the stream must keep
	// delivering windows and end with a clean EOF, not a severed
	// connection.
	resp, err := client.Post(base+"/v1/experiments", "application/json",
		// ~1.8s run emitting ~10 windows (30M accesses / 3M interval):
		// slow enough to span many idle deadlines, small enough that a
		// slow consumer still drains it promptly.
		strings.NewReader(`{"apps":["Fmm"],"scale":10,"filters":["EJ-16x2"],"interval":3000000}`))
	if err != nil {
		t.Fatal(err)
	}
	var st service.ExperimentStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// The stream lasts as long as the run, which the race detector
	// stretches many times over, so /live is read with no overall client
	// timeout (client's would sever the stream itself). A deadline on
	// each Read still fails a stream that stalls.
	const stall = 30 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stalled := time.AfterFunc(stall, cancel)
	defer stalled.Stop()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/experiments/"+st.ID+"/live", nil)
	if err != nil {
		t.Fatal(err)
	}
	live, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Fatalf("live attach status %d", live.StatusCode)
	}
	var events []byte
	started := time.Now()
	for {
		stalled.Reset(stall)
		n, err := live.Body.Read(buf)
		if !stalled.Stop() {
			t.Fatalf("SSE stream stalled for %v after %v", stall, time.Since(started))
		}
		events = append(events, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("SSE stream severed after %v (idle timeout %v): %v",
				time.Since(started), idle, err)
		}
		time.Sleep(2 * idle) // consume slower than the idle deadline
	}
	if lived := time.Since(started); lived < 2*idle {
		t.Errorf("stream lived only %v — too short to exercise the %v idle deadline", lived, idle)
	}
	if !strings.Contains(string(events), "data:") {
		t.Errorf("stream delivered no SSE events:\n%s", events)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run() returned %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("jettyd did not shut down after SIGTERM")
	}
}
