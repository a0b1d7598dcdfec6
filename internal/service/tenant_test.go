package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jetty/internal/obs"
)

// tenantDo performs one request under an explicit tenant ("" omits the
// header, i.e. the anonymous tenant) and returns the raw response.
func tenantDo(method, url, tenant string, body any) (*http.Response, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	return http.DefaultClient.Do(req)
}

// tenantJSON is clientJSON with an X-Jetty-Tenant header.
func tenantJSON(method, url, tenant string, body any, out any) (int, error) {
	resp, err := tenantDo(method, url, tenant, body)
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

func scrapeMetrics(t *testing.T, base string) string {
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

func TestValidTenant(t *testing.T) {
	good := []string{"a", "alice", "team-7", "org.unit_3", "A1", strings.Repeat("x", 64)}
	for _, name := range good {
		if !validTenant(name) {
			t.Errorf("validTenant(%q) = false, want true", name)
		}
	}
	bad := []string{"", ".hidden", "-flag", "has space", "sl/ash", "quo\"te", strings.Repeat("x", 65), "héllo"}
	for _, name := range bad {
		if validTenant(name) {
			t.Errorf("validTenant(%q) = true, want false", name)
		}
	}
}

// TestTenantHeaderRoundTrip: the resolved tenant is echoed on every
// response — the sent name, "anonymous" when absent — and a malformed
// name is rejected with 400 before reaching any handler.
func TestTenantHeaderRoundTrip(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})

	resp, err := tenantDo("GET", base+"/healthz", "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TenantHeader); got != "alice" {
		t.Errorf("echoed tenant %q, want alice", got)
	}

	resp, err = tenantDo("GET", base+"/healthz", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TenantHeader); got != DefaultTenant {
		t.Errorf("default tenant echoed as %q, want %q", got, DefaultTenant)
	}

	resp, err = tenantDo("GET", base+"/healthz", "not a tenant!", nil)
	if err != nil {
		t.Fatal(err)
	}
	var errBody map[string]string
	json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid tenant code %d, want 400", resp.StatusCode)
	}
	if errBody["error"] == "" {
		t.Error("invalid tenant rejection carries no error message")
	}
}

// TestTenantQuotaJobs: one tenant exhausting its per-tenant job quota
// gets 429 + Retry-After while another tenant still submits freely —
// and the global cap's 503 stays a distinct signal.
func TestTenantQuotaJobs(t *testing.T) {
	_, base := newTestServer(t, Options{
		Workers:                1,
		MaxUnfinished:          8,
		MaxUnfinishedPerTenant: 1,
	})

	long := SubmitRequest{Apps: []string{"Lu"}, Scale: 50, Filters: []string{"EJ-8x2"}}
	var first ExperimentStatus
	if code, err := tenantJSON("POST", base+"/v1/experiments", "alice", long, &first); err != nil || code != http.StatusAccepted {
		t.Fatalf("first alice submit: code %d err %v", code, err)
	}
	if first.Tenant != "alice" {
		t.Errorf("experiment tenant %q, want alice", first.Tenant)
	}

	// Alice is at quota: 429, with a Retry-After hint.
	resp, err := tenantDo("POST", base+"/v1/experiments", "alice", long)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// The daemon has headroom: bob's submission is admitted.
	var second ExperimentStatus
	if code, err := tenantJSON("POST", base+"/v1/experiments", "bob", long, &second); err != nil || code != http.StatusAccepted {
		t.Fatalf("bob submit during alice quota exhaustion: code %d err %v", code, err)
	}

	doJSON(t, "DELETE", base+"/v1/experiments/"+first.ID, nil, nil)
	doJSON(t, "DELETE", base+"/v1/experiments/"+second.ID, nil, nil)
}

// TestTenantQuotaCells: the per-tenant cell quota judges a submission by
// the engine jobs it would add, so one giant sweep is rejected up front.
func TestTenantQuotaCells(t *testing.T) {
	_, base := newTestServer(t, Options{
		Workers:                 1,
		MaxQueuedCellsPerTenant: 2,
	})

	// Three apps = three engine jobs > cap 2: rejected before scheduling.
	resp, err := tenantDo("POST", base+"/v1/experiments", "alice",
		SubmitRequest{Apps: []string{"Lu", "ch", "ff"}, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-cell submit code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// Two apps fit.
	var st ExperimentStatus
	if code, err := tenantJSON("POST", base+"/v1/experiments", "alice",
		SubmitRequest{Apps: []string{"Lu", "ch"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}, &st); err != nil || code != http.StatusAccepted {
		t.Fatalf("within-cell submit: code %d err %v", code, err)
	}
	waitDone(t, base, st.ID)
}

// TestTenantQuotaTraces: the per-tenant upload quota answers 429 within
// a store that still has global room, and deleting frees the slot.
func TestTenantQuotaTraces(t *testing.T) {
	_, base := newTestServer(t, Options{MaxTraces: 8, MaxTracesPerTenant: 1})
	dataA := recordTestTrace(t, "Lu", 2, 300)
	dataB := recordTestTrace(t, "ch", 2, 300)

	upload := func(tenant string, data []byte) (TraceInfo, *http.Response) {
		req, err := http.NewRequest("POST", base+"/v1/traces", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set(TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info TraceInfo
		json.NewDecoder(resp.Body).Decode(&info)
		return info, resp
	}

	info, resp := upload("alice", dataA)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first upload code %d", resp.StatusCode)
	}
	if info.Tenant != "alice" {
		t.Errorf("trace owner %q, want alice", info.Tenant)
	}

	_, resp = upload("alice", dataB)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota upload code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// Another tenant is unaffected by alice's quota.
	if _, resp = upload("bob", dataB); resp.StatusCode != http.StatusCreated {
		t.Errorf("bob upload code %d, want 201", resp.StatusCode)
	}

	// Deleting alice's trace frees her slot.
	doJSON(t, "DELETE", base+"/v1/traces/"+info.Digest, nil, nil)
	if _, resp = upload("alice", dataB); resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Errorf("post-delete upload code %d", resp.StatusCode)
	}
}

// TestRetryHintSeconds pins the Retry-After computation that replaced
// the old flat "Retry-After: 1": distinct floors per rejection class,
// backlog/worker/run-duration scaling, multiplicative jitter, and the
// five-minute ceiling.
func TestRetryHintSeconds(t *testing.T) {
	// Idle daemon, no jitter: the floors — and only the floors — and
	// they differ, so clients can tell "you are over quota" (429,
	// retry soon) from "the daemon is saturated" (503, back off).
	if got := retryHintSeconds(http.StatusTooManyRequests, 0, 4, 0, 0); got != retryFloorTenantSeconds {
		t.Errorf("idle 429 hint = %d, want %d", got, retryFloorTenantSeconds)
	}
	if got := retryHintSeconds(http.StatusServiceUnavailable, 0, 4, 0, 0); got != retryFloorGlobalSeconds {
		t.Errorf("idle 503 hint = %d, want %d", got, retryFloorGlobalSeconds)
	}
	if retryFloorTenantSeconds == retryFloorGlobalSeconds {
		t.Fatal("429 and 503 floors must be distinct")
	}

	// Backlog × run-duration over workers: 8 tasks × 3s each on 2
	// workers = 12s.
	if got := retryHintSeconds(http.StatusServiceUnavailable, 8, 2, 3.0, 0); got != 12 {
		t.Errorf("scaled 503 hint = %d, want 12", got)
	}
	// Jitter stretches the estimate multiplicatively, never shrinks it.
	if got := retryHintSeconds(http.StatusServiceUnavailable, 8, 2, 3.0, 0.24); got != 15 {
		t.Errorf("jittered 503 hint = %d, want 15 (ceil of 12 * 1.24)", got)
	}
	// The ceiling keeps a huge backlog from telling clients to go away
	// for hours.
	if got := retryHintSeconds(http.StatusServiceUnavailable, 1_000_000, 1, 10, 0); got != retryCeilSeconds {
		t.Errorf("huge-backlog hint = %d, want the %ds ceiling", got, retryCeilSeconds)
	}
	// Degenerate inputs are defended: no workers reported yet, no EWMA.
	if got := retryHintSeconds(http.StatusTooManyRequests, 3, 0, 0, 0); got != 3 {
		t.Errorf("defaulted hint = %d, want 3 (3 tasks x 1s default / 1 worker)", got)
	}
}

// TestRetryAfterHintsOverHTTP: rejected submissions carry hints within
// the computed bounds — a per-tenant 429 at or above its floor, a
// global 503 at or above its strictly higher floor — rather than the
// old synchronized "1".
func TestRetryAfterHintsOverHTTP(t *testing.T) {
	_, base := newTestServer(t, Options{
		Workers:                1,
		MaxUnfinished:          2,
		MaxUnfinishedPerTenant: 1,
	})
	long := SubmitRequest{Apps: []string{"Lu"}, Scale: 50, Filters: []string{"EJ-8x2"}}

	hint := func(resp *http.Response) int {
		t.Helper()
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		h := resp.Header.Get("Retry-After")
		n, err := strconv.Atoi(h)
		if err != nil {
			t.Fatalf("Retry-After %q is not an integer: %v", h, err)
		}
		return n
	}

	var first ExperimentStatus
	if code, err := tenantJSON("POST", base+"/v1/experiments", "alice", long, &first); err != nil || code != http.StatusAccepted {
		t.Fatalf("first submit: code %d err %v", code, err)
	}

	// Alice over quota: 429, hint at or above the tenant floor.
	resp, err := tenantDo("POST", base+"/v1/experiments", "alice", long)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota code %d, want 429", resp.StatusCode)
	}
	h429 := hint(resp)
	if h429 < retryFloorTenantSeconds || h429 > retryCeilSeconds {
		t.Errorf("429 hint %d outside [%d, %d]", h429, retryFloorTenantSeconds, retryCeilSeconds)
	}

	// Fill the global cap with bob, then carol sees 503 with a hint at
	// or above the (strictly higher) global floor.
	var second ExperimentStatus
	if code, err := tenantJSON("POST", base+"/v1/experiments", "bob", long, &second); err != nil || code != http.StatusAccepted {
		t.Fatalf("bob submit: code %d err %v", code, err)
	}
	resp, err = tenantDo("POST", base+"/v1/experiments", "carol", long)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated code %d, want 503", resp.StatusCode)
	}
	h503 := hint(resp)
	if h503 < retryFloorGlobalSeconds || h503 > retryCeilSeconds {
		t.Errorf("503 hint %d outside [%d, %d]", h503, retryFloorGlobalSeconds, retryCeilSeconds)
	}

	doJSON(t, "DELETE", base+"/v1/experiments/"+first.ID, nil, nil)
	doJSON(t, "DELETE", base+"/v1/experiments/"+second.ID, nil, nil)
}

// TestTenantMetrics: per-tenant occupancy gauges appear on the scrape
// while a tenant holds work, drop to zero (not stale values, not
// vanished series) when it drains, and the whole exposition passes the
// in-repo promlint.
func TestTenantMetrics(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})

	long := SubmitRequest{Apps: []string{"Lu"}, Scale: 50, Filters: []string{"EJ-8x2"}}
	var st ExperimentStatus
	if code, err := tenantJSON("POST", base+"/v1/experiments", "alice", long, &st); err != nil || code != http.StatusAccepted {
		t.Fatalf("submit: code %d err %v", code, err)
	}

	body := scrapeMetrics(t, base)
	if !strings.Contains(body, `jettyd_tenant_jobs_unfinished{tenant="alice"} 1`) {
		t.Errorf("in-flight scrape missing alice jobs gauge:\n%s", grepMetrics(body, "jettyd_tenant"))
	}
	if !strings.Contains(body, `jettyd_tenant_cells_unfinished{tenant="alice"} 1`) {
		t.Errorf("in-flight scrape missing alice cells gauge:\n%s", grepMetrics(body, "jettyd_tenant"))
	}
	if problems := obs.Lint(body); len(problems) != 0 {
		t.Errorf("scrape fails lint: %v", problems)
	}

	// Cancel; the next scrape must report alice at zero, not freeze the
	// series at its last value.
	doJSON(t, "DELETE", base+"/v1/experiments/"+st.ID, nil, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		body = scrapeMetrics(t, base)
		if strings.Contains(body, `jettyd_tenant_jobs_unfinished{tenant="alice"} 0`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alice gauge never zeroed:\n%s", grepMetrics(body, "jettyd_tenant"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if problems := obs.Lint(body); len(problems) != 0 {
		t.Errorf("post-drain scrape fails lint: %v", problems)
	}

	// Rejections are counted per tenant and reason.
	_, base2 := newTestServer(t, Options{Workers: 1, MaxQueuedCellsPerTenant: 1})
	tenantJSON("POST", base2+"/v1/experiments", "carol",
		SubmitRequest{Apps: []string{"Lu", "ch"}, Scale: 0.02}, nil)
	body = scrapeMetrics(t, base2)
	if !strings.Contains(body, `jettyd_admission_rejections_total{tenant="carol",reason="tenant_cells"} 1`) {
		t.Errorf("scrape missing carol rejection counter:\n%s", grepMetrics(body, "jettyd_admission"))
	}
}

// grepMetrics filters a scrape to lines containing substr (test-failure
// readability).
func grepMetrics(body, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestOversizeJSONBodies: a submit or sweep body past maxRequestBytes is
// 413 (it used to be a generic 400), matching the trace-upload contract.
func TestOversizeJSONBodies(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})

	huge := `{"apps":["` + strings.Repeat("a", maxRequestBytes+1024) + `"]}`
	for _, path := range []string{"/v1/experiments", "/v1/sweeps"} {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var errBody map[string]string
		json.NewDecoder(resp.Body).Decode(&errBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversize body code %d, want 413", path, resp.StatusCode)
		}
		if !strings.Contains(errBody["error"], "cap") {
			t.Errorf("POST %s oversize error %q lacks the cap hint", path, errBody["error"])
		}
	}
}

// TestGzipRequestBodies: JSON submits and trace uploads accept
// Content-Encoding: gzip; the size cap binds the *decompressed* stream
// (a gzip bomb answers 413, not OOM); unknown encodings answer 415.
func TestGzipRequestBodies(t *testing.T) {
	_, base := newTestServer(t, Options{Workers: 1})

	post := func(path, encoding string, body []byte) *http.Response {
		req, err := http.NewRequest("POST", base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if encoding != "" {
			req.Header.Set("Content-Encoding", encoding)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	gz := func(data []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(data)
		zw.Close()
		return buf.Bytes()
	}

	// A gzipped submit body is decoded transparently.
	plain := []byte(`{"apps":["Lu"],"scale":0.02,"filters":["EJ-16x2"]}`)
	if resp := post("/v1/experiments", "gzip", gz(plain)); resp.StatusCode != http.StatusAccepted {
		t.Errorf("gzipped submit code %d, want 202", resp.StatusCode)
	}

	// A gzipped trace upload stores the same digest as a plain one.
	data := recordTestTrace(t, "Lu", 2, 300)
	plainInfo, code := uploadTrace(t, base, data)
	if code != http.StatusCreated {
		t.Fatalf("plain upload code %d", code)
	}
	if resp := post("/v1/traces", "gzip", gz(data)); resp.StatusCode != http.StatusOK {
		t.Errorf("gzipped re-upload code %d, want 200 (same digest %s)", resp.StatusCode, plainInfo.Digest)
	}

	// Unknown encodings are 415, not silently misparsed.
	if resp := post("/v1/experiments", "br", plain); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("unknown encoding code %d, want 415", resp.StatusCode)
	}

	// A bomb: tiny compressed, >cap decompressed. The cap fires on the
	// decompressed stream.
	bomb := gz([]byte(`{"trace":"` + strings.Repeat("a", maxRequestBytes+1024) + `"}`))
	if len(bomb) >= maxRequestBytes {
		t.Fatalf("bomb did not compress below the cap (%d bytes)", len(bomb))
	}
	if resp := post("/v1/experiments", "gzip", bomb); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("gzip bomb code %d, want 413", resp.StatusCode)
	}

	// A truncated gzip stream is a plain 400.
	if resp := post("/v1/experiments", "gzip", gz(plain)[:8]); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated gzip code %d, want 400", resp.StatusCode)
	}
}

// TestTwoTenantFairShare is the ISSUE 8 acceptance stress: a flooder
// tenant saturating its quota and the engine queue must not starve a
// light tenant — the light tenant's jobs keep retiring (fair-share
// drain), the flooder's overflow gets 429 + Retry-After (quota, not the
// global cap's 503), and the daemon stays responsive throughout.
func TestTwoTenantFairShare(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	_, base := newTestServer(t, Options{
		Workers:                1,
		MaxUnfinished:          32,
		MaxUnfinishedPerTenant: 4,
	})

	deadline := time.Now().Add(90 * time.Second)
	stop := make(chan struct{})
	var flooder429 bool
	var floodMu sync.Mutex
	var wg sync.WaitGroup

	// flood submits one flooder job and reports whether the daemon
	// refused it with 429. The accepted jobs are real work that keeps
	// the single worker busy. Each carries a slightly different scale,
	// so the engine's dedup (coalescing, the result cache) cannot
	// collapse them into one execution.
	flood := func(i int) bool {
		// Scale 3 runs ~0.5s per job: long enough that four of them
		// pile up unfinished (saturating the quota), short enough that
		// the light tenant's turn comes quickly.
		req := SubmitRequest{
			Apps:    []string{"Fmm"},
			Scale:   3 + float64(i%500)*0.001,
			Filters: []string{"EJ-8x2"},
		}
		resp, err := tenantDo("POST", base+"/v1/experiments", "flooder", req)
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			return false
		}
		floodMu.Lock()
		if resp.Header.Get("Retry-After") != "" {
			flooder429 = true
		}
		floodMu.Unlock()
		return true
	}

	// Fill the flooder's four slots and see its quota refuse the next
	// submission before the light tenant starts, so the rejection is
	// on every later scrape instead of racing the light tenant's jobs.
	i := 0
	for ; !flood(i); i++ {
		if time.Now().After(deadline) {
			t.Fatal("the flooder's quota never refused a submission")
		}
	}

	// The flooder then hammers submissions far past its quota.
	wg.Add(1)
	go func(i int) {
		defer wg.Done()
		for ; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if flood(i) {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}(i + 1)

	// The light tenant submits a handful of small experiments serially;
	// each must retire while the flooder saturates the daemon.
	light := SubmitRequest{Apps: []string{"Lu"}, Scale: 0.02, Filters: []string{"EJ-16x2"}}
	for i := 0; i < 3; i++ {
		id, err := stressSubmitAs(base, "/v1/experiments", "light", light, deadline)
		if err != nil {
			t.Fatalf("light submit %d: %v", i, err)
		}
		if id == "" {
			t.Fatalf("light submit %d never admitted (starved at admission)", i)
		}
		if err := stressPoll(base, "/v1/experiments/", id, deadline); err != nil {
			t.Fatalf("light job %d starved: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	floodMu.Lock()
	got429 := flooder429
	floodMu.Unlock()
	if !got429 {
		t.Error("flooder never saw a 429 with Retry-After despite exceeding its quota")
	}

	// Per-tenant series for both tenants are on the scrape and lint clean.
	body := scrapeMetrics(t, base)
	for _, want := range []string{
		`jettyd_tenant_jobs_unfinished{tenant="flooder"}`,
		`jettyd_tenant_jobs_unfinished{tenant="light"} 0`,
		`jettyd_admission_rejections_total{tenant="flooder",reason="tenant_jobs"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %s:\n%s", want, grepMetrics(body, "tenant"))
		}
	}
	if problems := obs.Lint(body); len(problems) != 0 {
		t.Errorf("scrape fails lint: %v", problems)
	}

	// Everything the flooder left behind must still retire (no lost jobs).
	quiesce := time.Now().Add(60 * time.Second)
	for {
		var exps []ExperimentStatus
		clientJSON("GET", base+"/v1/experiments", nil, &exps)
		unfinished := 0
		for _, e := range exps {
			if e.State == "queued" || e.State == "running" {
				unfinished++
			}
		}
		if unfinished == 0 {
			break
		}
		if time.Now().After(quiesce) {
			t.Fatalf("%d flooder jobs never retired", unfinished)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSubmitContextTenant: handlers called without the middleware (unit
// use, embedded servers) fall back to the anonymous tenant.
func TestSubmitContextTenant(t *testing.T) {
	if got := tenantFrom(t.Context()); got != DefaultTenant {
		t.Errorf("tenantFrom(bare ctx) = %q, want %q", got, DefaultTenant)
	}
}
