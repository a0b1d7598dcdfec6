package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is one running jettyd process.
type daemon struct {
	name string
	base string // http://127.0.0.1:port
	log  string // path of its stderr log
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped
}

// topology is the set of daemons one workload runs against. front is
// the daemon clients talk to; every daemon is scraped for /metrics.
type topology struct {
	daemons []*daemon
	front   *daemon
}

// startTopology boots the daemons of one topology kind under dir and
// returns once every one answers /healthz:
//
//	single   one jettyd
//	cluster  a coordinator sharding to two worker daemons over /v1/cells
//
// The daemons keep everything in memory unless durable is set; then each
// gets its own -data-dir under dir.
func startTopology(ctx context.Context, kind, jettyd, dir string, durable bool) (*topology, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &topology{}
	add := func(name string, args ...string) (*daemon, error) {
		if durable {
			args = append(args, "-data-dir", filepath.Join(dir, name+"-data"))
		}
		d, err := startDaemon(ctx, jettyd, dir, name, args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.daemons = append(t.daemons, d)
		return d, nil
	}
	var err error
	switch kind {
	case "single":
		t.front, err = add("single")
	case "cluster":
		// Workers first: the coordinator assumes its workers alive at boot.
		var urls []string
		for _, name := range []string{"worker-a", "worker-b"} {
			w, err := add(name, "-role", "worker")
			if err != nil {
				return nil, err
			}
			urls = append(urls, w.base)
		}
		t.front, err = add("coordinator", "-role", "coordinator", "-cluster-workers", strings.Join(urls, ","))
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// stop terminates every daemon and waits for each to exit.
func (t *topology) stop() {
	for i := len(t.daemons) - 1; i >= 0; i-- {
		t.daemons[i].stop()
	}
	t.daemons = nil
}

// startDaemon launches one jettyd on a free loopback port and waits for
// it to become healthy. A port taken between probe and bind shows as an
// early exit, so the launch is retried on a fresh port a few times.
func startDaemon(ctx context.Context, jettyd, dir, name string, args ...string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = launch(jettyd, dir, name, args...); err != nil {
			return nil, err
		}
		if err = d.waitHealthy(ctx, 20*time.Second); err == nil {
			return d, nil
		}
		d.stop()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("%s did not become healthy: %w", name, err)
}

func launch(jettyd, dir, name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(jettyd, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, base: "http://" + addr, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop or waitHealthy reports
		close(d.done)
	}()
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitHealthy(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("exited during start-up (log: %s)", d.log)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if resp, err := httpClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("timed out waiting for /healthz")
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within ten seconds, and waits until it is reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}
