package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// Request IDs: every HTTP request gets one, echoed as X-Request-Id,
// stamped on the access-log record, and propagated into the engine job
// the request submits (engine.GroupTask.Origin) so a slow-job log line or a
// status JSON payload can be correlated back to the request that caused
// it. The ID is a per-process random prefix plus a sequence number:
// unique across restarts, cheap, and ordered within one process.

var (
	reqPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degraded but functional: sequence numbers alone still
			// correlate within one process.
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	reqSeq atomic.Uint64
)

// NewRequestID returns a fresh request ID, e.g. "9f1c02ab-0000002a".
func NewRequestID() string {
	return fmt.Sprintf("%s-%08x", reqPrefix, reqSeq.Add(1))
}

// reqIDKey is the context key RequestID / WithRequestID share.
type reqIDKey struct{}

// WithRequestID stamps a request ID onto a context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestID returns the context's request ID, or "" when unset.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}
