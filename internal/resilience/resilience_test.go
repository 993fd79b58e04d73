package resilience

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

var ctx = context.Background()

var errBoom = errors.New("boom")

// fastPolicy keeps test backoffs in the microsecond range.
func fastPolicy() *Policy {
	return &Policy{
		MaxRetries:       2,
		BackoffBase:      time.Microsecond,
		BackoffMax:       10 * time.Microsecond,
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
	}
}

func TestRetryRecovers(t *testing.T) {
	calls := 0
	err := Retry(ctx, fastPolicy(), NewBreaker("t", nil), "t", func(context.Context) error {
		calls++
		if calls < 3 {
			return errBoom
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	calls := 0
	err := Retry(ctx, fastPolicy(), NewBreaker("t", nil), "t", func(context.Context) error {
		calls++
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if calls != 3 { // initial attempt + MaxRetries
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestRetryStopsWhenCancelled(t *testing.T) {
	cctx, cancel := context.WithCancel(ctx)
	calls := 0
	err := Retry(cctx, &Policy{MaxRetries: 100, BackoffBase: time.Millisecond}, NewBreaker("t", nil), "t",
		func(context.Context) error {
			calls++
			cancel()
			return errBoom
		})
	if err == nil {
		t.Fatal("cancelled retry returned nil")
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1: a cancelled query must stop retrying", calls)
	}
}

func TestRetryNilPolicySingleAttempt(t *testing.T) {
	calls := 0
	err := Retry(ctx, nil, NewBreaker("t", nil), "t", func(context.Context) error {
		calls++
		return errBoom
	})
	if !errors.Is(err, errBoom) || calls != 1 {
		t.Errorf("nil policy: err=%v calls=%d, want errBoom after 1 call", err, calls)
	}
}

func TestRetryCallTimeoutBoundsAttempts(t *testing.T) {
	p := &Policy{CallTimeout: 10 * time.Millisecond, MaxRetries: 1, BackoffBase: time.Microsecond}
	calls := 0
	start := time.Now()
	err := Retry(ctx, p, NewBreaker("t", nil), "t", func(actx context.Context) error {
		calls++
		<-actx.Done() // a hung source: only the per-attempt deadline frees us
		return actx.Err()
	})
	if err == nil {
		t.Fatal("hung source reported success")
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (per-attempt timeout is not the query's own deadline)", calls)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("attempts not bounded by CallTimeout: %v", d)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := &Policy{BackoffBase: 10 * time.Millisecond, BackoffMax: 40 * time.Millisecond}
	for attempt := 1; attempt <= 6; attempt++ {
		bound := min(p.BackoffBase<<(attempt-1), p.BackoffMax)
		for i := 0; i < 50; i++ {
			if d := p.Backoff(attempt); d <= 0 || d > bound {
				t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, bound)
			}
		}
	}
	var nilP *Policy
	if d := nilP.Backoff(1); d != 0 {
		t.Errorf("nil policy backoff = %v, want 0", d)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker("s", &Policy{BreakerThreshold: 2, BreakerCooldown: 30 * time.Millisecond})
	if err := b.Allow(ctx); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
	b.Record(ctx, errBoom)
	if b.State() != BreakerClosed {
		t.Fatalf("state after 1 failure = %v, want closed", b.State())
	}
	b.Record(ctx, errBoom)
	if b.State() != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", b.State())
	}
	var open *BreakerOpenError
	if err := b.Allow(ctx); !errors.As(err, &open) {
		t.Fatalf("open breaker allowed a call (err=%v)", err)
	}
	// After the cooldown, exactly one probe passes; concurrent calls are
	// still shed.
	time.Sleep(40 * time.Millisecond)
	if err := b.Allow(ctx); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if err := b.Allow(ctx); !errors.As(err, &open) {
		t.Fatalf("second call during probe allowed (err=%v)", err)
	}
	// A failed probe re-opens immediately.
	b.Record(ctx, errBoom)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	// A successful probe closes.
	time.Sleep(40 * time.Millisecond)
	if err := b.Allow(ctx); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Record(ctx, nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if err := b.Allow(ctx); err != nil {
		t.Fatalf("closed-again breaker rejected: %v", err)
	}
}

// TestBreakerNeverOpensWithoutThreshold: a policy with no threshold, or
// none at all, keeps the breaker closed while it still counts.
func TestBreakerNeverOpensWithoutThreshold(t *testing.T) {
	for _, p := range []*Policy{nil, {MaxRetries: 2}} {
		b := NewBreaker("s", p)
		for i := 0; i < 10; i++ {
			b.Record(ctx, errBoom)
		}
		if err := b.Allow(ctx); err != nil || b.State() != BreakerClosed {
			t.Errorf("policy %+v: state %v, Allow = %v; want closed", p, b.State(), err)
		}
		if d := b.Describe(); !strings.Contains(d, "fail=10") {
			t.Errorf("policy %+v: Describe() = %q, want ten failures counted", p, d)
		}
	}
}

// TestBreakerRecords: the breaker is the source's one health record. A
// call whose caller gave up — ctx.Err() set, whatever the error says —
// counts nothing; an error on a live context, a deadline among them,
// is the source's failure.
func TestBreakerRecords(t *testing.T) {
	b := NewBreaker("ny", &Policy{BreakerThreshold: 2, BreakerCooldown: time.Hour})
	b.Record(ctx, nil)
	gone, cancel := context.WithCancel(ctx)
	cancel()
	b.Record(gone, errBoom)
	b.Record(gone, nil)
	if d := b.Describe(); d != "breaker=closed ok=1 fail=0" {
		t.Errorf("Describe() = %q: a call its caller gave up on was counted", d)
	}
	b.Record(ctx, errBoom)
	b.Record(ctx, context.DeadlineExceeded)
	if b.State() != BreakerOpen {
		t.Errorf("state = %v after two failures, want open", b.State())
	}
	if d := b.Describe(); !strings.Contains(d, "ok=1 fail=2") || !strings.Contains(d, context.DeadlineExceeded.Error()) {
		t.Errorf("Describe() = %q, want two failures and the last error", d)
	}
}

func TestPartialResultError(t *testing.T) {
	pre := &PartialResultError{Outcomes: []SourceOutcome{
		{Source: "ny", Op: "union", Rows: 10},
		{Source: "la", Op: "union", Err: errBoom},
	}}
	if pre.AllFailed() {
		t.Error("AllFailed with one success")
	}
	if f := pre.Failed(); len(f) != 1 || f[0].Source != "la" {
		t.Errorf("Failed = %v", f)
	}
	msg := pre.Error()
	if msg == "" || !errors.As(error(pre), new(*PartialResultError)) {
		t.Errorf("Error() = %q", msg)
	}
	all := &PartialResultError{Outcomes: []SourceOutcome{{Source: "ny", Err: errBoom}}}
	if !all.AllFailed() {
		t.Error("AllFailed missed the every-source-down case")
	}
	empty := &PartialResultError{}
	if empty.AllFailed() {
		t.Error("AllFailed on zero outcomes")
	}
}

func TestOutcomesContext(t *testing.T) {
	if OutcomesFrom(ctx) != nil {
		t.Fatal("bare context carries a collector")
	}
	octx, o := WithOutcomes(ctx)
	if OutcomesFrom(octx) != o {
		t.Fatal("collector did not round-trip through the context")
	}
	if o.Partial() != nil {
		t.Error("empty collector reports partial")
	}
	o.Record(SourceOutcome{Source: "ny", Op: "union", Rows: 5})
	if o.Partial() != nil {
		t.Error("all-success collector reports partial")
	}
	o.Record(SourceOutcome{Source: "la", Op: "union", Err: errBoom})
	pre := o.Partial()
	if pre == nil || len(pre.Outcomes) != 2 || len(pre.Failed()) != 1 {
		t.Fatalf("Partial = %+v", pre)
	}
	// Nil collector records nothing and never degrades.
	var no *Outcomes
	no.Record(SourceOutcome{Err: errBoom})
	if no.Partial() != nil {
		t.Error("nil collector produced a partial verdict")
	}
}
