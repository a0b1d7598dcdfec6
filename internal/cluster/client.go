package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"jetty/internal/engine"
)

// tenantHeader mirrors service.TenantHeader (the package boundary runs
// the other way: service wires a Coordinator in, so cluster cannot
// import service). Fan-out requests carry the submitting tenant so each
// worker's fair-share queue and quotas see the true identity.
const tenantHeader = "X-Jetty-Tenant"

// requestIDHeader carries a dispatch's request ID, so one sweep's
// requests can be found in every daemon's access log; maxRequestID
// mirrors the service's bound on it (a longer ID would be replaced).
const (
	requestIDHeader = "X-Request-Id"
	maxRequestID    = 64
)

// StatusError is a worker's non-2xx HTTP reply. It distinguishes the
// retry classes: 5xx is transient (the worker is alive but overloaded
// or draining — retry elsewhere or later), 4xx is permanent (the
// request itself is bad — retrying cannot help).
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("worker replied %d: %s", e.Code, e.Msg)
}

// Permanent reports whether the reply condemns the request rather than
// the moment: 4xx, except 429 — a worker-side tenant quota rejection is
// backpressure (Retry-After and all), not a malformed request.
func (e *StatusError) Permanent() bool {
	return e.Code >= 400 && e.Code < 500 && e.Code != http.StatusTooManyRequests
}

// Health is a worker's probed state.
type Health struct {
	OK    bool   `json:"ok"`
	State string `json:"state"`
	// Workers is the worker's engine pool width.
	Workers int `json:"workers"`
	// Stats carries the engine's saturation gauges; QueueDepth and
	// Inflight weight the coordinator's scheduler, CacheEntries tells a
	// warm L1 from a cold restart.
	Stats engine.Stats `json:"stats"`
}

// Client is a coordinator's handle on one remote jettyd worker.
type Client struct {
	base string
	name string
	http *http.Client
}

// NewClient dials nothing: it validates the base URL ("http://host:port")
// and returns a handle. The zero-timeout http.Client is deliberate —
// every call takes a context, and cell runs legitimately outlive any
// fixed client timeout.
func NewClient(base string) (*Client, error) {
	base = strings.TrimRight(base, "/")
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: worker URL %q: want http://host:port", base)
	}
	return &Client{base: base, name: u.Host, http: &http.Client{}}, nil
}

// URL returns the worker's base URL.
func (c *Client) URL() string { return c.base }

// Name returns the worker's display name (the URL's host:port).
func (c *Client) Name() string { return c.name }

// Probe fetches the worker's /healthz. A reachable-but-draining worker
// (503 with a parseable body) returns Health{OK: false} and no error;
// transport failures return an error.
func (c *Client) Probe(ctx context.Context) (Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return Health{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return Health{}, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		return Health{}, fmt.Errorf("cluster: %s: bad healthz body: %w", c.name, err)
	}
	return h, nil
}

// RunCells dispatches one cell unit and blocks until the worker ran it
// (or ctx expires). Non-2xx replies come back as *StatusError. It reads
// at most maxReply bytes of the reply, so a broken or hostile worker
// cannot grow the coordinator's memory without bound; a caller passes
// the unit's replyBound, which no honest reply exceeds.
func (c *Client) RunCells(ctx context.Context, tenant, id string, creq CellsRequest, maxReply int64) (CellsResponse, error) {
	body, err := json.Marshal(creq)
	if err != nil {
		return CellsResponse{}, err
	}
	resp, err := c.post(ctx, CellsPath, "application/json", tenant, id, body)
	if err != nil {
		return CellsResponse{}, err
	}
	defer resp.Body.Close()
	reply := &io.LimitedReader{R: resp.Body, N: maxReply}
	var out CellsResponse
	if err := json.NewDecoder(reply).Decode(&out); err != nil {
		if reply.N == 0 {
			return CellsResponse{}, fmt.Errorf("cluster: %s: cells reply exceeds %d bytes", c.name, maxReply)
		}
		return CellsResponse{}, fmt.Errorf("cluster: %s: bad cells body: %w", c.name, err)
	}
	return out, nil
}

// UploadTrace pushes a raw JTRC trace file to the worker's upload store
// so "trace:<digest>" spec entries resolve there. Content addressing
// makes the push idempotent: the worker stores it under the same digest
// the coordinator resolved.
func (c *Client) UploadTrace(ctx context.Context, tenant, id string, data []byte) error {
	resp, err := c.post(ctx, "/v1/traces", "application/octet-stream", tenant, id, data)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return nil
}

// post sends body to the worker under the submitting tenant and, when
// id is not empty, the request ID the worker logs it under. A non-2xx
// reply comes back as *StatusError.
func (c *Client) post(ctx context.Context, path, contentType, tenant, id string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		return nil, &StatusError{Code: resp.StatusCode, Msg: errorBody(resp.Body)}
	}
	return resp, nil
}

// errorBody extracts the service's {"error": ...} message, falling back
// to the raw (truncated) body.
func errorBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(b))
}
