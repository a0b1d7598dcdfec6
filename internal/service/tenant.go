package service

import (
	"context"
	"fmt"
	"net/http"
)

// Tenant identity. Every request carries a tenant name in the
// X-Jetty-Tenant header (defaulting to "anonymous" when absent), echoed
// back on the response, stamped on the access log and threaded into
// every engine job the request submits (engine.GroupTask.Tenant) — the
// fair-share scheduler and the per-tenant admission quotas key on it.
//
// jettyd trusts the header as-is: tenancy here is a fairness and
// accounting boundary, not an authentication one. Put real
// authentication in front (a proxy that sets the header from
// credentials) when tenants are adversarial.

// TenantHeader is the request/response header naming the tenant.
const TenantHeader = "X-Jetty-Tenant"

// DefaultTenant is the tenant of requests that send no header.
const DefaultTenant = "anonymous"

// maxTenantLen bounds a tenant name; it doubles as a metric label and a
// log field, so attacker-controlled growth stays small.
const maxTenantLen = 64

// validTenant reports whether a tenant name is well-formed: 1..64
// characters from [A-Za-z0-9._-], not starting with '.' or '-' (keeps
// names safe as metric label values, log fields and future file names).
func validTenant(name string) bool {
	if len(name) == 0 || len(name) > maxTenantLen {
		return false
	}
	if name[0] == '.' || name[0] == '-' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// tenantKey carries the request's tenant in its context.
type tenantKey struct{}

// withTenant stamps a tenant onto a request context.
func withTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// tenantFrom returns the request context's tenant (DefaultTenant when
// the middleware has not run, e.g. direct handler tests).
func tenantFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantKey{}).(string); ok {
		return t
	}
	return DefaultTenant
}

// resolveTenant extracts and validates the request's tenant. ok=false
// means the handler chain must stop: a 400 with the validation error has
// been written.
func resolveTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.Header.Get(TenantHeader)
	if name == "" {
		return DefaultTenant, true
	}
	if !validTenant(name) {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"invalid %s: need 1..%d characters from [A-Za-z0-9._-], not starting with '.' or '-'",
			TenantHeader, maxTenantLen))
		return "", false
	}
	return name, true
}
