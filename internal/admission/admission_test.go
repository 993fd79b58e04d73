package admission

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"gis/internal/obs"
)

var bg = context.Background()

func mustAdmit(t *testing.T, c *Controller, ctx context.Context, tenant string) (context.Context, *Session) {
	t.Helper()
	actx, s, err := c.Admit(ctx, tenant)
	if err != nil {
		t.Fatalf("Admit(%q) = %v", tenant, err)
	}
	return actx, s
}

func TestZeroConfigAdmitsEverything(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 100; i++ {
		_, s, err := c.Admit(bg, "t")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		s.Release()
		s.Release() // idempotent
	}
	if n := c.InFlight(); n != -1 {
		t.Errorf("InFlight without cap = %d, want -1", n)
	}
}

func TestNilControllerAdmits(t *testing.T) {
	var c *Controller
	actx, s, err := c.Admit(bg, "t")
	if err != nil || actx != bg || s != nil {
		t.Fatalf("nil controller = %v, %v, %v", actx, s, err)
	}
	s.Release() // nil-safe
	if s.Metered() || s.Tenant() != "" {
		t.Error("nil session accessors must be inert")
	}
}

// An admitted session is the context its query runs under: without a
// memory quota or a default deadline it is one object, SessionFrom finds
// it there and in every context derived from it, it passes the caller's
// values and cancellation through, and its Release cancels nothing.
func TestSessionIsTheContext(t *testing.T) {
	c := New(Config{MaxInFlight: 4})
	if n := testing.AllocsPerRun(100, func() {
		_, s, err := c.Admit(bg, "")
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
	}); n != 1 {
		t.Errorf("an unmetered Admit and Release allocate %.0f objects, want the session", n)
	}
	parent, cancel := context.WithCancel(WithTenant(bg, "acme"))
	ctx, s := mustAdmit(t, c, parent, "acme")
	derived, cancelDerived := context.WithCancel(ctx)
	defer cancelDerived()
	if ctx != context.Context(s) || SessionFrom(ctx) != s || SessionFrom(derived) != s || TenantFrom(derived) != "acme" {
		t.Error("the session must be the context, found from it and from what derives from it, over the caller's values")
	}
	s.Release()
	if ctx.Err() != nil {
		t.Errorf("an unmetered Release cancelled the context: %v", ctx.Err())
	}
	cancel()
	<-derived.Done()
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Errorf("the caller's cancellation reached the session as %v", ctx.Err())
	}
}

func TestQueueFullShed(t *testing.T) {
	c := New(Config{MaxInFlight: 1, MaxQueue: 1, MaxWait: 5 * time.Second})
	_, s1 := mustAdmit(t, c, bg, "a")
	defer s1.Release()

	// Fill the single queue slot.
	queued := make(chan error, 1)
	go func() {
		_, s2, err := c.Admit(bg, "a")
		if err == nil {
			s2.Release()
		}
		queued <- err
	}()
	waitFor(t, func() bool { return c.queued.Load() == 1 })

	// The next arrival finds cap and queue both full.
	_, _, err := c.Admit(bg, "b")
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverload) {
		t.Fatalf("queue-full shed = %v, want *OverloadError", err)
	}
	if oe.Reason != ReasonQueueFull || !oe.Retryable || oe.Tenant != "b" {
		t.Errorf("shed = %+v, want retryable queue_full for b", oe)
	}

	// Releasing the slot lets the queued query through.
	s1.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued admit = %v", err)
	}
}

func TestDeadlineShed(t *testing.T) {
	c := New(Config{MaxInFlight: 1})
	_, s1 := mustAdmit(t, c, bg, "a")
	defer s1.Release()

	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	_, _, err := c.Admit(ctx, "a")
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ReasonDeadline || oe.Retryable {
		t.Fatalf("deadline shed = %v, want non-retryable deadline", err)
	}

	// An already-expired deadline sheds without queueing at all.
	ectx, ecancel := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer ecancel()
	if _, _, err := c.Admit(ectx, "a"); !errors.Is(err, ErrOverload) {
		t.Fatalf("expired-deadline admit = %v, want overload", err)
	}
}

func TestTenantRateShed(t *testing.T) {
	c := New(Config{TenantRate: 1, TenantBurst: 1, MaxWait: 10 * time.Millisecond})
	_, s := mustAdmit(t, c, bg, "a") // consumes the burst token
	s.Release()
	_, _, err := c.Admit(bg, "a") // refill needs ~1s >> MaxWait
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ReasonTenantRate || !oe.Retryable {
		t.Fatalf("rate shed = %v, want retryable tenant_rate", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("rate shed must carry a retry-after hint, got %v", oe.RetryAfter)
	}
	// A different tenant has its own bucket.
	_, s2, err := c.Admit(bg, "b")
	if err != nil {
		t.Fatalf("other tenant = %v", err)
	}
	s2.Release()
}

func TestDegradedShedsImmediately(t *testing.T) {
	degraded := false
	c := New(Config{MaxInFlight: 1, MaxWait: 5 * time.Second, Degraded: func() bool { return degraded }})
	_, s1 := mustAdmit(t, c, bg, "a")
	defer s1.Release()

	degraded = true
	start := time.Now()
	_, _, err := c.Admit(bg, "a")
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ReasonDegraded || !oe.Retryable {
		t.Fatalf("degraded shed = %v, want retryable degraded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("degraded shed queued for %v, want breaker-style immediate shed", d)
	}
}

// A memory quota bounds one statement: the Grow that would pass it is
// refused with the typed, non-retryable mem_quota error and charges
// nothing, Shrink gives bytes back, a second session of the same tenant
// has an account of its own, and the account ends with Release. Nothing
// is cancelled.
func TestMemQuotaRefusesTheGrower(t *testing.T) {
	c := New(Config{MemQuota: 1000})
	ctx1, s1 := mustAdmit(t, c, bg, "a")
	ctx2, s2 := mustAdmit(t, c, bg, "a")
	defer s2.Release()
	if !s1.Metered() {
		t.Fatal("a session under a memory quota must be metered")
	}

	if err := s1.Grow(600); err != nil {
		t.Fatalf("s1 under its quota: %v", err)
	}
	err := s1.Grow(500)
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverload) || oe.Reason != ReasonMemQuota || oe.Retryable || oe.Tenant != "a" {
		t.Fatalf("a Grow past the quota = %v, want a non-retryable mem_quota overload for a", err)
	}
	if ctx1.Err() != nil {
		t.Errorf("a refused Grow cancelled its statement: %v", ctx1.Err())
	}
	// The refused Grow charged nothing: 400 still fit, and no more.
	if err := s1.Grow(400); err != nil {
		t.Errorf("s1 after a refusal, back to its quota: %v", err)
	}
	if err := s1.Grow(1); !errors.Is(err, ErrOverload) {
		t.Errorf("s1 one byte past its quota: %v, want refused", err)
	}
	s1.Shrink(600)
	if err := s1.Grow(600); err != nil {
		t.Errorf("s1 after Shrink gave 600 back: %v", err)
	}

	// The tenant's other session is untouched, and has all of its own.
	if err := s2.Grow(1000); err != nil || ctx2.Err() != nil {
		t.Errorf("s2 beside a full s1: %v (context %v)", err, ctx2.Err())
	}

	// Release ends the account: a new statement of the tenant starts empty.
	s1.Release()
	_, s3 := mustAdmit(t, c, bg, "a")
	defer s3.Release()
	if err := s3.Grow(1000); err != nil {
		t.Errorf("a new session after s1's Release: %v", err)
	}
}

func TestInFlightAccounting(t *testing.T) {
	c := New(Config{MaxInFlight: 2})
	_, s1 := mustAdmit(t, c, bg, "a")
	_, s2 := mustAdmit(t, c, bg, "b")
	if n := c.InFlight(); n != 2 {
		t.Errorf("InFlight = %d, want 2", n)
	}
	s1.Release()
	s1.Release() // double release must not free a second slot
	if n := c.InFlight(); n != 1 {
		t.Errorf("InFlight after release = %d, want 1", n)
	}
	s2.Release()
	if n := c.InFlight(); n != 0 {
		t.Errorf("InFlight after drain = %d, want 0", n)
	}
}

func TestWireErrorRoundTrip(t *testing.T) {
	in := &OverloadError{Tenant: "acme", Reason: ReasonTenantRate, Retryable: true, RetryAfter: 250 * time.Millisecond}
	out, ok := ParseWireError(in.MarshalWire())
	if !ok {
		t.Fatal("marshalled overload error must parse")
	}
	if *out != *in {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
	if _, ok := ParseWireError("some ordinary error"); ok {
		t.Error("ordinary strings must not parse as overload")
	}
	// Malformed payloads degrade to a generic retryable overload.
	if e, ok := ParseWireError(overloadWirePrefix + "garbage"); !ok || !e.Retryable {
		t.Errorf("malformed payload = %+v, %v", e, ok)
	}
}

// waitFor polls cond up to a bounded wall-clock budget.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// A tenant's name is whatever a connection's hello says, so the state
// kept for it must not outlive its use: 10 000 distinct tenants admitted
// and released leave the controller and the registry where one tenant
// leaves them. With a rate limit a bucket has to refill first — a
// tenant dropped earlier would come back with a full one — and the
// admissions that follow do the forgetting. (Until PR 28 every name kept
// a tenantState and two counters for ever.)
func TestTenantStateIsBounded(t *testing.T) {
	tenants := func(c *Controller) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.tenants)
	}
	signals := func() int {
		s := obs.Default().Snapshot()
		return len(s.Counters) + len(s.Gauges) + len(s.Histograms)
	}
	visit := func(c *Controller, from, to int) {
		for i := from; i < to; i++ {
			_, s := mustAdmit(t, c, bg, "tenant-"+strconv.Itoa(i))
			s.Release()
		}
	}

	c := New(Config{MaxInFlight: 4})
	visit(c, 0, 1)
	one, registered := tenants(c), signals()
	visit(c, 1, 10000)
	if got := tenants(c); got != one {
		t.Errorf("%d tenant states after 10 000 tenants came and went, %d after one", got, one)
	}
	if got := signals(); got != registered {
		t.Errorf("%d signals registered after 10 000 tenants, %d after one", got, registered)
	}

	// A session in flight, or on its way in, keeps its tenant.
	_, held := mustAdmit(t, c, bg, "held")
	visit(c, 0, 100)
	c.mu.Lock()
	if st := c.tenants["held"]; st == nil || st != held.t {
		t.Error("a tenant with a session in flight was forgotten")
	}
	c.mu.Unlock()
	held.Release()

	// One token a millisecond, one in the bucket: a tenant is remembered
	// while its bucket refills — forgotten sooner, it would come back
	// with a full one — and forgotten by the admissions after that.
	limited := New(Config{TenantRate: 1000, TenantBurst: 1, MaxWait: time.Nanosecond})
	visit(limited, 0, 1)
	if _, _, err := limited.Admit(bg, "tenant-0"); !errors.Is(err, ErrOverload) {
		t.Errorf("a second query inside the refill time = %v, want shed", err)
	}
	visit(limited, 1, 500)
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 10000; i++ {
		// Admitted or shed, a query looks its tenant up, and that sweeps.
		if _, s, err := limited.Admit(bg, "steady"); err == nil {
			s.Release()
		}
	}
	if got := tenants(limited); got != 1 {
		t.Errorf("%d tenant states kept under a rate limit, long after 500 tenants' buckets refilled", got)
	}
}
