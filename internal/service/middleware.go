package service

import (
	"net/http"
	"strconv"
	"time"

	"jetty/internal/obs"
)

// Access-log middleware: every request gets a request ID (a client-sent
// X-Request-Id is honored so an upstream proxy can correlate, otherwise
// one is generated), echoed back as X-Request-Id, stamped on the
// request context (obs.RequestID) and propagated into any engine job
// the handler submits (engine.GroupTask.Origin). On completion the
// middleware records the route/status latency histogram and emits one
// structured access-log record.

// maxRequestIDLen bounds an inbound X-Request-Id; longer values are
// replaced, not truncated (an attacker-controlled log field stays small).
const maxRequestIDLen = 64

// withTelemetry wraps the API mux with request-ID assignment, tenant
// resolution (X-Jetty-Tenant validated, defaulted and echoed), the HTTP
// latency histogram and the access log.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > maxRequestIDLen {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ctx := obs.WithRequestID(r.Context(), id)

		rec := &responseRecorder{ResponseWriter: w}
		tenant, ok := resolveTenant(rec, r)
		if ok {
			w.Header().Set(TenantHeader, tenant)
			r = r.WithContext(withTenant(ctx, tenant))
			next.ServeHTTP(rec, r)
		} else {
			tenant = "invalid" // bounded label for the rejected request
		}

		// The mux sets r.Pattern on match; an unmatched request (404/405)
		// keeps the label space bounded under one value rather than
		// exploding per probed path.
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := rec.statusCode()
		dur := time.Since(start)
		s.tel.httpLatency.With(route, strconv.Itoa(status), tenant).Observe(dur.Seconds())
		s.tel.log.Info("request",
			"id", id,
			"tenant", tenant,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", status,
			"bytes", rec.bytes,
			"duration_ms", durationMS(dur))
	})
}

// responseRecorder captures the status code and body size without
// changing the response. It forwards Flush so streaming handlers (the
// SSE live stream) keep working behind the middleware.
type responseRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *responseRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *responseRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

func (r *responseRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusCode returns the recorded status (200 when the handler wrote a
// body without an explicit WriteHeader, or wrote nothing at all).
func (r *responseRecorder) statusCode() int {
	if r.status == 0 {
		return http.StatusOK
	}
	return r.status
}
