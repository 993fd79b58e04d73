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
	err := Retry(ctx, fastPolicy(), nil, "t", func(context.Context) error {
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
	err := Retry(ctx, fastPolicy(), nil, "t", func(context.Context) error {
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
	err := Retry(cctx, &Policy{MaxRetries: 100, BackoffBase: time.Millisecond}, nil, "t",
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
	err := Retry(ctx, nil, nil, "t", func(context.Context) error {
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
	err := Retry(ctx, p, nil, "t", func(actx context.Context) error {
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
	if b == nil {
		t.Fatal("threshold 2 should enable the breaker")
	}
	if err := b.Allow(ctx); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
	b.Failure(ctx)
	if b.State() != BreakerClosed {
		t.Fatalf("state after 1 failure = %v, want closed", b.State())
	}
	b.Failure(ctx)
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
	b.Failure(ctx)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	// A successful probe closes.
	time.Sleep(40 * time.Millisecond)
	if err := b.Allow(ctx); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Success(ctx)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if err := b.Allow(ctx); err != nil {
		t.Fatalf("closed-again breaker rejected: %v", err)
	}
}

func TestBreakerDisabled(t *testing.T) {
	if b := NewBreaker("s", nil); b != nil {
		t.Error("nil policy built a breaker")
	}
	var b *Breaker
	if err := b.Allow(ctx); err != nil {
		t.Errorf("nil breaker rejected: %v", err)
	}
	b.Success(ctx)
	b.Failure(ctx)
	if b.State() != BreakerClosed {
		t.Errorf("nil breaker state = %v", b.State())
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker(&Policy{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	h := tr.For("ny")
	if h != tr.For("ny") {
		t.Error("For returned distinct records for one source")
	}
	if !tr.Healthy("ny") || !tr.Healthy("never-seen") {
		t.Error("fresh and unknown sources must report healthy")
	}
	h.Failure(ctx, errBoom)
	if tr.Healthy("ny") || h.Healthy() {
		t.Error("open breaker still reports healthy")
	}
	if d := h.Describe(); !strings.Contains(d, errBoom.Error()) {
		t.Errorf("Describe() = %q, want the last error in it", d)
	}
	tr.For("la")
	if names := tr.Names(); len(names) != 2 || names[0] != "la" || names[1] != "ny" {
		t.Errorf("Names = %v", names)
	}
	// Nil tracker and nil health are fully inert.
	var nt *Tracker
	if nt.For("x") != nil || !nt.Healthy("x") || nt.Names() != nil {
		t.Error("nil tracker not inert")
	}
	var nh *SourceHealth
	nh.Success(ctx)
	nh.Failure(ctx, errBoom)
	if !nh.Healthy() || nh.Describe() == "" {
		t.Error("nil health not inert")
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
