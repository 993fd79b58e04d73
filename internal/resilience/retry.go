package resilience

import (
	"context"
	"time"

	"gis/internal/obs"
)

// Retry runs one idempotent read under the policy: breaker-gated,
// per-attempt CallTimeout, at most MaxRetries re-attempts with jittered
// exponential backoff, consulting ctx.Err() between attempts. Outcomes
// feed h's breaker. Retry must ONLY wrap idempotent reads — the source
// wrapper routes writes and 2PC messages around it.
func Retry(ctx context.Context, p *Policy, h *SourceHealth, name string, op func(context.Context) error) error {
	timeout := time.Duration(0)
	if p != nil {
		timeout = p.CallTimeout
	}
	return retry(ctx, p, h, name, timeout, op)
}

// retry is Retry with an explicit per-attempt timeout so streaming
// calls (whose result outlives the call) can opt out of CallTimeout.
func retry(ctx context.Context, p *Policy, h *SourceHealth, name string, timeout time.Duration, op func(context.Context) error) error {
	maxRetries := 0
	if p != nil {
		maxRetries = p.MaxRetries
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := h.Breaker().Allow(ctx); err != nil {
			// Shedding load: fail fast without touching the network. If
			// an earlier attempt saw a real error, surface that one.
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, timeout)
		}
		err := op(actx)
		cancel()
		if err == nil {
			h.Success(ctx)
			return nil
		}
		if ctx.Err() != nil {
			// The query itself is cancelled or timed out: not the
			// source's fault, and retrying a dead query is pointless.
			return err
		}
		h.Failure(ctx, err)
		lastErr = err
		if attempt >= maxRetries {
			return err
		}
		if obs.Enabled(ctx) {
			_, sp := obs.StartSpan(ctx, obs.SpanRetry, name)
			sp.SetInt("attempt", int64(attempt+1))
			sp.SetAttr("error", err.Error())
			sp.End()
		}
		if serr := SleepBackoff(ctx, p, attempt+1); serr != nil {
			return err
		}
	}
}
