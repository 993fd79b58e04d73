package admission

import (
	"errors"
	"strconv"
	"strings"
	"time"
)

// ErrOverload is the sentinel every shed decision matches through
// errors.Is, regardless of which limit fired. Callers that only care
// whether to retry check errors.Is(err, ErrOverload) and the Retryable
// hint on the unwrapped *OverloadError.
var ErrOverload = errors.New("admission: overloaded")

// Reason classifies why a query was shed.
type Reason string

const (
	// ReasonQueueFull: the global in-flight cap was reached and the
	// wait queue was already at capacity.
	ReasonQueueFull Reason = "queue_full"
	// ReasonDeadline: the query queued for a slot but its deadline
	// expired before one freed up.
	ReasonDeadline Reason = "deadline"
	// ReasonTenantRate: the tenant's token bucket cannot supply a token
	// within the query's deadline.
	ReasonTenantRate Reason = "tenant_rate"
	// ReasonDegraded: the Degraded hook reports the federation
	// degraded, so over-limit queries are shed immediately
	// (breaker-style) instead of queueing.
	ReasonDegraded Reason = "degraded"
	// ReasonMemQuota: the statement would have held more at the
	// mediator than its memory quota allows, so the holder that grew
	// past it refused.
	ReasonMemQuota Reason = "mem_quota"
)

// OverloadError is the typed shed error. Retryable distinguishes
// transient pressure (retry after RetryAfter) from a per-query fault
// (a blown deadline is not worth retrying with the same deadline).
type OverloadError struct {
	Tenant     string
	Reason     Reason
	Retryable  bool
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	var b strings.Builder
	b.WriteString("admission: overloaded (")
	b.WriteString(string(e.Reason))
	if e.Tenant != "" {
		b.WriteString(", tenant ")
		b.WriteString(e.Tenant)
	}
	b.WriteString("): ")
	if e.Retryable {
		b.WriteString("retryable")
		if e.RetryAfter > 0 {
			b.WriteString(" after ")
			b.WriteString(e.RetryAfter.String())
		}
	} else {
		b.WriteString("not retryable")
	}
	return b.String()
}

// Is makes errors.Is(err, ErrOverload) match every shed decision.
func (e *OverloadError) Is(target error) bool { return target == ErrOverload }

// overloadWirePrefix marks an overload error travelling as a wire
// protocol error string, so the far side can rehydrate the typed error
// (see ParseWireError).
const overloadWirePrefix = "!overload;"

// MarshalWire renders the error in the compact form carried inside a
// wire msgErr payload: "!overload;reason;tenant;retryable;retry_after_ms".
func (e *OverloadError) MarshalWire() string {
	r := "0"
	if e.Retryable {
		r = "1"
	}
	return overloadWirePrefix + string(e.Reason) + ";" + e.Tenant + ";" + r + ";" +
		strconv.FormatInt(e.RetryAfter.Milliseconds(), 10)
}

// ParseWireError rehydrates an overload error from a wire error string.
// The bool reports whether s carried one; any malformed field degrades
// to a generic retryable overload rather than failing.
func ParseWireError(s string) (*OverloadError, bool) {
	rest, ok := strings.CutPrefix(s, overloadWirePrefix)
	if !ok {
		return nil, false
	}
	e := &OverloadError{Reason: ReasonQueueFull, Retryable: true}
	parts := strings.SplitN(rest, ";", 4)
	if len(parts) == 4 {
		e.Reason = Reason(parts[0])
		e.Tenant = parts[1]
		e.Retryable = parts[2] == "1"
		if ms, err := strconv.ParseInt(parts[3], 10, 64); err == nil && ms >= 0 {
			e.RetryAfter = time.Duration(ms) * time.Millisecond
		}
	}
	return e, true
}

// shedError builds the typed error for one shed decision.
func shedError(tenant string, reason Reason, retryable bool, after time.Duration) error {
	return &OverloadError{Tenant: tenant, Reason: reason, Retryable: retryable, RetryAfter: after}
}
