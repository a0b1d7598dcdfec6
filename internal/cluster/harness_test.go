package cluster_test

// The fault-injection harness: every worker in these tests is a real
// jettyd service wrapped in a proxy handler that can misbehave on
// demand — drop the connection after computing (the reply lost in
// flight), answer 503 bursts (overload), stall past the coordinator's
// dispatch deadline (slow-loris), answer /healthz late or never, or
// crash outright and later restart
// as a fresh process that lost every byte of in-memory state (engine
// cache, trace store). The coordinator under test talks to it over a
// real HTTP listener, exactly as it would to a remote daemon.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"jetty/internal/cluster"
	"jetty/internal/engine"
	"jetty/internal/service"
	"jetty/internal/sweep"
)

// unitRequest is one /v1/cells request as the worker saw it.
type unitRequest struct {
	id      string // X-Request-Id
	indices []int
}

// faultyWorker is one worker daemon plus its fault switchboard.
type faultyWorker struct {
	opts service.Options
	url  string

	mu        sync.Mutex
	svc       *service.Server
	crashed   bool          // every request aborts the connection
	failNext  int           // next N /v1/cells requests answer 503
	dropNext  int           // next N /v1/cells requests compute, then abort
	stallNext int           // next N /v1/cells requests stall by stall
	stall     time.Duration // slow-loris delay for stalled requests
	bloatNext int           // next N /v1/cells requests stream an endless reply
	// healthDelay delays every /healthz answer; the client hanging up
	// ends the wait.
	healthDelay time.Duration
	lateProbes  int       // /healthz requests delayed so far
	firstLate   time.Time // arrival of the first delayed /healthz request
	bloated     int64     // bytes of endless replies the client accepted
	cellReqs    int       // /v1/cells requests seen (lifetime)
	traceUps    int       // /v1/traces uploads seen (lifetime)
	tenants     map[string]bool
	units       []unitRequest // every /v1/cells request, in arrival order
	uploadIDs   []string      // X-Request-Id of every /v1/traces upload
	onCells     func(n int)   // called with the 1-based count before serving
}

func newFaultyWorker(t *testing.T, opts service.Options) *faultyWorker {
	t.Helper()
	w := &faultyWorker{opts: opts, tenants: make(map[string]bool)}
	w.svc = service.New(opts)
	srv := httptest.NewServer(http.HandlerFunc(w.serve))
	w.url = srv.URL
	t.Cleanup(func() {
		srv.Close()
		w.mu.Lock()
		svc := w.svc
		w.mu.Unlock()
		svc.Close()
	})
	return w
}

func (w *faultyWorker) serve(rw http.ResponseWriter, r *http.Request) {
	isCells := r.Method == http.MethodPost && r.URL.Path == "/v1/cells"

	var unit unitRequest
	if isCells {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req cluster.CellsRequest
		json.Unmarshal(body, &req)
		unit = unitRequest{id: r.Header.Get("X-Request-Id"), indices: req.Indices}
	}

	w.mu.Lock()
	if isCells {
		w.cellReqs++
		w.units = append(w.units, unit)
		if tn := r.Header.Get("X-Jetty-Tenant"); tn != "" {
			w.tenants[tn] = true
		}
		if w.onCells != nil {
			// Release the lock for the callback: it may flip fault
			// switches through the methods below.
			f, n := w.onCells, w.cellReqs
			w.mu.Unlock()
			f(n)
			w.mu.Lock()
		}
	}
	if r.Method == http.MethodPost && r.URL.Path == "/v1/traces" {
		w.traceUps++
		w.uploadIDs = append(w.uploadIDs, r.Header.Get("X-Request-Id"))
	}
	if w.crashed {
		w.mu.Unlock()
		panic(http.ErrAbortHandler) // connection drops, no reply
	}
	if delay := w.healthDelay; delay > 0 && r.URL.Path == "/healthz" {
		if w.lateProbes++; w.lateProbes == 1 {
			w.firstLate = time.Now()
		}
		w.mu.Unlock()
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
		w.mu.Lock()
	}
	svc := w.svc
	var drop bool
	var stall time.Duration
	if isCells {
		if w.failNext > 0 {
			w.failNext--
			w.mu.Unlock()
			rw.Header().Set("Content-Type", "application/json")
			rw.WriteHeader(http.StatusServiceUnavailable)
			rw.Write([]byte(`{"error":"injected overload"}`))
			return
		}
		if w.dropNext > 0 {
			w.dropNext--
			drop = true
		}
		if w.stallNext > 0 {
			w.stallNext--
			stall = w.stall
		}
		if w.bloatNext > 0 {
			w.bloatNext--
			w.mu.Unlock()
			w.streamEndlessReply(rw)
			return
		}
	}
	w.mu.Unlock()

	if stall > 0 {
		time.Sleep(stall)
	}
	if drop {
		// Compute the unit for real — the engine cache warms, the work
		// is done — then lose the reply mid-flight.
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, r)
		panic(http.ErrAbortHandler)
	}
	svc.Handler().ServeHTTP(rw, r)
}

// endlessReplyLimit ends an endless reply whose client never hangs up,
// so a coordinator that reads without bound fails the test instead of
// exhausting memory.
const endlessReplyLimit = 1 << 30

// streamEndlessReply answers 200 with a well-formed but never-ending
// cells array, until the client stops reading or endlessReplyLimit.
func (w *faultyWorker) streamEndlessReply(rw http.ResponseWriter) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(http.StatusOK)
	filler := bytes.Repeat([]byte(`{"index":0,"key":"k","result":{}},`), 2048)
	n, err := rw.Write([]byte(`{"cells":[`))
	for sent := int64(n); err == nil && sent < endlessReplyLimit; sent += int64(n) {
		w.mu.Lock()
		w.bloated = sent
		w.mu.Unlock()
		n, err = rw.Write(filler)
	}
}

// bloatedBytes returns how much of its endless replies the worker got
// to send.
func (w *faultyWorker) bloatedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bloated
}

// crash makes every subsequent request abort its connection, as if the
// process died. In-flight requests on the old service keep computing
// (their replies may or may not make it out, like a real crash).
func (w *faultyWorker) crash() {
	w.mu.Lock()
	w.crashed = true
	w.mu.Unlock()
}

// restart replaces the crashed daemon with a brand-new one: fresh
// engine (empty cache), fresh trace store — everything in-memory is
// gone, exactly like a process restart.
func (w *faultyWorker) restart() {
	w.mu.Lock()
	old := w.svc
	w.svc = service.New(w.opts)
	w.crashed = false
	w.mu.Unlock()
	old.Close()
}

// delayHealth delays every later /healthz answer by d.
func (w *faultyWorker) delayHealth(d time.Duration) {
	w.mu.Lock()
	w.healthDelay = d
	w.mu.Unlock()
}

// delayedProbes returns how many /healthz requests were delayed and when
// the first of them arrived.
func (w *faultyWorker) delayedProbes() (int, time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lateProbes, w.firstLate
}

func (w *faultyWorker) cellRequests() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cellReqs
}

func (w *faultyWorker) traceUploads() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.traceUps
}

// unitRequests returns every /v1/cells request the worker saw.
func (w *faultyWorker) unitRequests() []unitRequest {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]unitRequest(nil), w.units...)
}

// traceUploadIDs returns the request ID of every trace upload.
func (w *faultyWorker) traceUploadIDs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.uploadIDs...)
}

func (w *faultyWorker) sawTenant(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tenants[name]
}

// startWorkers boots n healthy workers and returns them with their
// dial-ready clients.
func startWorkers(t *testing.T, n int, opts service.Options) ([]*faultyWorker, []*cluster.Client) {
	t.Helper()
	workers := make([]*faultyWorker, n)
	clients := make([]*cluster.Client, n)
	for i := range workers {
		workers[i] = newFaultyWorker(t, opts)
		c, err := cluster.NewClient(workers[i].url)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	return workers, clients
}

// newCoordinator builds a test-paced coordinator (fast probes, tiny
// backoff) over the clients, closed with the test.
func newCoordinator(t *testing.T, clients []*cluster.Client, mod func(*cluster.Options)) *cluster.Coordinator {
	t.Helper()
	opts := cluster.Options{
		Workers:        clients,
		ProbeInterval:  25 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
		RetryBackoff:   time.Millisecond,
	}
	if mod != nil {
		mod(&opts)
	}
	co, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

// newEngine builds the engine a coordinator's sweeps run on, sized to
// its dispatch slots as jettyd sizes a coordinator's engine, and closed
// with the test (before the coordinator).
func newEngine(t *testing.T, co *cluster.Coordinator, opts engine.Options) *engine.Engine {
	t.Helper()
	opts.Workers = co.Slots()
	eng := engine.New(opts)
	t.Cleanup(eng.Close)
	return eng
}

// submit starts spec on eng with every unit dispatched through co, as a
// coordinator daemon submits a sweep.
func submit(t *testing.T, eng *engine.Engine, co *cluster.Coordinator, spec sweep.Spec, traces sweep.TraceResolver, sub sweep.Submission) *sweep.Sweep {
	t.Helper()
	remote, err := co.Remote(spec, traces, sub.Tenant, sub.Origin)
	if err != nil {
		t.Fatal(err)
	}
	sub.Remote = remote
	s, err := sweep.Submit(eng, spec, traces, sub)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runLocal runs the spec on a private single-process engine — the
// reference the distributed result must match bit for bit.
func runLocal(t *testing.T, spec sweep.Spec, traces sweep.TraceResolver) *sweep.Result {
	t.Helper()
	eng := engine.New(engine.Options{})
	t.Cleanup(eng.Close)
	res, err := sweep.Run(t.Context(), eng, spec, traces)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// distinctKeys counts the sweep's distinct cell digests (duplicate-key
// cells retire from one delivery).
func distinctKeys(cells []sweep.Cell) int {
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		seen[c.Key] = true
	}
	return len(seen)
}
