package admission

import "context"

type tenantKey struct{}
type sessionKey struct{}

// WithTenant tags ctx with the tenant every statement run under it
// belongs to. The engine reads it at admission time; the wire client
// forwards it in the connection handshake so component systems can
// enforce their own quotas.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom returns the tenant carried by ctx ("" when untagged).
func TenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// SessionFrom returns the admitted session governing ctx, or nil. The
// executor charges what a statement holds to its memory account.
func SessionFrom(ctx context.Context) *Session {
	s, _ := ctx.Value(sessionKey{}).(*Session)
	return s
}
