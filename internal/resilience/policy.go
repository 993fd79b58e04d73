// Package resilience is the mediator's answer to autonomous component
// systems that can be slow, flaky, or down: per-source call policies
// (deadlines, bounded retries with jittered exponential backoff — for
// idempotent reads only), circuit breakers (closed/open/half-open with
// a single probe) that are each source's health record, kept by the
// wrapper that calls it, and typed partial-result degradation for
// queries that can tolerate losing a non-essential source.
//
// The cardinal rule, enforced by the source wrapper and by tests: a
// write or a 2PC prepare/commit/abort message is NEVER retried here.
// Re-sending a non-idempotent message after an ambiguous failure is how
// federations double-apply writes; ambiguity belongs to the 2PC
// coordinator's in-doubt handling, not to a retry loop.
package resilience

import (
	"context"
	"math/rand/v2"
	"time"
)

// Policy is one source's call policy. The zero value disables every
// mechanism; DefaultPolicy returns sensible defaults for a WAN
// federation.
type Policy struct {
	// CallTimeout bounds each metadata call attempt (Tables, TableInfo,
	// Stats). Streaming Execute calls are bounded by the query's own
	// deadline instead — a per-attempt timeout would cut streams off
	// mid-flight. 0 means no per-attempt bound.
	CallTimeout time.Duration
	// MaxRetries is how many times an idempotent read is re-attempted
	// after the first failure. 0 disables retries.
	MaxRetries int
	// BackoffBase is the first retry's backoff; each further attempt
	// doubles it (full jitter), capped at BackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold opens a source's breaker after this many
	// consecutive failures. 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// letting a single half-open probe through.
	BreakerCooldown time.Duration
}

// DefaultPolicy returns the stock WAN policy: 2s metadata deadline,
// 2 retries from 10ms (jittered, capped at 250ms), breaker opening
// after 4 consecutive failures with a 500ms cooldown.
func DefaultPolicy() *Policy {
	return &Policy{
		CallTimeout:      2 * time.Second,
		MaxRetries:       2,
		BackoffBase:      10 * time.Millisecond,
		BackoffMax:       250 * time.Millisecond,
		BreakerThreshold: 4,
		BreakerCooldown:  500 * time.Millisecond,
	}
}

// Backoff returns the jittered backoff before retry attempt n (1-based):
// a uniform draw from (0, min(BackoffMax, BackoffBase<<(n-1))], the
// "full jitter" scheme that decorrelates a thundering herd of retriers.
func (p *Policy) Backoff(attempt int) time.Duration {
	if p == nil || p.BackoffBase <= 0 {
		return 0
	}
	d := p.BackoffBase << (attempt - 1)
	if p.BackoffMax > 0 && (d > p.BackoffMax || d <= 0) {
		d = p.BackoffMax
	}
	return time.Duration(rand.Int64N(int64(d))) + 1
}

// SleepBackoff sleeps the jittered backoff for attempt, returning early
// with the context's error if the caller is cancelled. Retry loops
// (including txn's commit-retry) use it so backing off never outlives
// the query.
func SleepBackoff(ctx context.Context, p *Policy, attempt int) error {
	d := p.Backoff(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
