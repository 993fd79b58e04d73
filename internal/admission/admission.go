// Package admission is the mediator's overload-protection front end:
// every top-level query passes through a Controller before planning.
// The controller enforces a global in-flight cap with queue-with-
// deadline semantics, per-tenant token buckets, and a
// per-tenant memory quota over result-stream bytes. Over-limit queries
// wait up to their deadline and are then shed with a typed
// *OverloadError (errors.Is-matchable via ErrOverload, with a
// retryable hint), so clients can tell transient pressure from hard
// failure. When the resilience health tracker reports the federation
// degraded, the controller stops queueing and sheds breaker-style.
package admission

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gis/internal/obs"
)

// Config tunes a Controller. The zero value of any field disables that
// limit, so Config{} admits everything (but still tracks metrics).
type Config struct {
	// MaxInFlight caps concurrently executing queries across all
	// tenants. 0 = unlimited.
	MaxInFlight int
	// MaxQueue caps how many over-limit queries may wait for a slot;
	// arrivals beyond it are shed immediately. 0 defaults to
	// 4*MaxInFlight (a queue deeper than that only adds latency).
	MaxQueue int
	// MaxWait bounds how long a query without a context deadline may
	// queue (for a slot or a token). 0 defaults to 1s. Queries with a
	// deadline wait up to the deadline.
	MaxWait time.Duration
	// TenantRate is each tenant's sustained admission rate in queries
	// per second; TenantBurst is the bucket capacity (defaults to
	// max(1, TenantRate)). 0 = no per-tenant rate limit.
	TenantRate  float64
	TenantBurst float64
	// MemQuota bounds the result-stream bytes a tenant's in-flight
	// sessions may hold in aggregate. Exceeding it aborts the tenant's
	// largest session (never the process). 0 = unlimited.
	MemQuota int64
	// DefaultDeadline is applied to queries whose context carries no
	// deadline. 0 = none.
	DefaultDeadline time.Duration
	// Degraded, when set, reports that the federation's health tracker
	// considers it degraded (some breaker open): over-limit queries are
	// then shed immediately instead of queued.
	Degraded func() bool
}

// Controller is the admission front end. Safe for concurrent use.
type Controller struct {
	cfg   Config
	slots chan struct{} // nil when MaxInFlight == 0

	queued atomic.Int64

	mu      sync.Mutex
	tenants map[string]*tenantState

	mAdmitted  *obs.Counter
	mShed      *obs.Counter
	mQueued    *obs.Counter
	mMemAborts *obs.Counter
	gInflight  *obs.Gauge
	gQueue     *obs.Gauge
	hQueueWait *obs.Histogram
}

// tenantState is one tenant's bucket and memory account. The bucket is
// mutated under Controller.mu (once per query); the byte account uses
// atomics because it is touched per row batch. A tenant's name is
// whatever a peer sent, so its state lives only while something would be
// lost without it (idle).
type tenantState struct {
	name   string
	tokens float64 // may go negative: reservations queue on the bucket
	last   time.Time

	bytes atomic.Int64
	// holds counts the tenant's queries between Admit's look-up and
	// their shedding or Release; sessions are the admitted ones among
	// them, kept only under a memory quota (abortWorst's candidates).
	// Both guarded by Controller.mu.
	holds    int
	sessions map[*Session]struct{}
}

// New builds a controller from cfg.
func New(cfg Config) *Controller {
	if cfg.MaxQueue == 0 && cfg.MaxInFlight > 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxWait == 0 {
		cfg.MaxWait = time.Second
	}
	if cfg.TenantBurst == 0 && cfg.TenantRate > 0 {
		cfg.TenantBurst = cfg.TenantRate
		if cfg.TenantBurst < 1 {
			cfg.TenantBurst = 1
		}
	}
	c := &Controller{
		cfg:     cfg,
		tenants: make(map[string]*tenantState),

		mAdmitted:  obs.Default().Counter("admission.admitted"),
		mShed:      obs.Default().Counter("admission.shed"),
		mQueued:    obs.Default().Counter("admission.queued"),
		mMemAborts: obs.Default().Counter("admission.mem_aborts"),
		gInflight:  obs.Default().Gauge("admission.inflight"),
		gQueue:     obs.Default().Gauge("admission.queue_depth"),
		hQueueWait: obs.Default().Histogram("admission.queue_seconds", obs.LatencyBuckets),
	}
	if cfg.MaxInFlight > 0 {
		c.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	return c
}

// idle reports whether forgetting t loses nothing: no query of the
// tenant is admitted or on its way in, and its bucket has refilled — a
// fresh bucket is a full one. Caller holds c.mu.
func (c *Controller) idle(t *tenantState, now time.Time) bool {
	rate := c.cfg.TenantRate
	return t.holds == 0 && (rate <= 0 || t.tokens+now.Sub(t.last).Seconds()*rate >= c.cfg.TenantBurst)
}

// hold looks tenant name up for one query, making its state on first
// use; the query keeps it alive until it is shed or released (holds).
// It also forgets up to two other tenants that have gone idle — map
// order is random, so every entry comes up — which bounds the states
// kept by the tenants with a query in flight or a bucket refilling,
// without a timer or a goroutine, and never forgets the tenant a steady
// client is about to use again. Caller holds c.mu.
func (c *Controller) hold(name string, now time.Time) *tenantState {
	t, ok := c.tenants[name]
	if !ok {
		t = &tenantState{
			name:     name,
			tokens:   c.cfg.TenantBurst,
			last:     now,
			sessions: make(map[*Session]struct{}),
		}
		c.tenants[name] = t
	}
	t.holds++
	seen := 0
	for other, o := range c.tenants {
		if c.idle(o, now) {
			delete(c.tenants, other)
		}
		if seen++; seen == 2 {
			break
		}
	}
	return t
}

// reserveToken refills t's bucket and reserves one token, returning how
// long the caller must wait before its reservation matures (0 = a token
// was available). Caller holds c.mu. The bucket may go negative — that
// is the queue — but the caller sheds (and calls unreserve) when the
// wait exceeds its deadline.
func (c *Controller) reserveToken(t *tenantState, now time.Time) time.Duration {
	rate := c.cfg.TenantRate
	if rate <= 0 {
		return 0
	}
	t.tokens = min(t.tokens+now.Sub(t.last).Seconds()*rate, c.cfg.TenantBurst)
	t.last = now
	t.tokens--
	if t.tokens >= 0 {
		return 0
	}
	return time.Duration(-t.tokens / rate * float64(time.Second))
}

// unreserve returns a reserved token after a shed decision.
func (t *tenantState) unreserve() { t.tokens++ }

// Admit gates one query for the given tenant ("" is the anonymous
// tenant, which shares one bucket). On success it returns the context the
// query MUST run under — the session itself, which carries the default
// deadline and, under a memory quota, the controller's abort lever — and
// the session to Release when the query finishes: one object, without a
// quota or a default deadline. On overload it returns a typed
// *OverloadError matching ErrOverload.
func (c *Controller) Admit(ctx context.Context, tenant string) (context.Context, *Session, error) {
	if c == nil {
		return ctx, nil, nil
	}
	now := time.Now()
	deadline, hasDeadline := ctx.Deadline()
	maxWait := c.cfg.MaxWait
	if hasDeadline {
		if until := time.Until(deadline); until < maxWait {
			maxWait = until
		}
	}
	if maxWait <= 0 {
		return ctx, nil, c.refuse(nil, tenant, ReasonDeadline, false, 0)
	}
	degraded := c.cfg.Degraded != nil && c.cfg.Degraded()

	// Per-tenant token bucket.
	c.mu.Lock()
	t := c.hold(tenant, now)
	wait := c.reserveToken(t, now)
	if wait > 0 && (degraded || wait > maxWait) {
		t.unreserve()
		c.mu.Unlock()
		reason := ReasonTenantRate
		if degraded {
			reason = ReasonDegraded
		}
		return ctx, nil, c.refuse(t, tenant, reason, true, wait)
	}
	c.mu.Unlock()

	if wait > 0 {
		if err := c.sleep(ctx, wait); err != nil {
			c.mu.Lock()
			t.unreserve()
			c.mu.Unlock()
			return ctx, nil, c.refuse(t, tenant, ReasonDeadline, false, 0)
		}
		maxWait -= wait
	}

	// Global in-flight cap with a bounded, deadline-limited queue.
	if c.slots != nil {
		select {
		case c.slots <- struct{}{}:
		default:
			if degraded {
				return ctx, nil, c.refuse(t, tenant, ReasonDegraded, true, 0)
			}
			if maxWait <= 0 {
				return ctx, nil, c.refuse(t, tenant, ReasonDeadline, false, 0)
			}
			if int(c.queued.Load()) >= c.cfg.MaxQueue {
				return ctx, nil, c.refuse(t, tenant, ReasonQueueFull, true, maxWait)
			}
			qstart := time.Now()
			c.queued.Add(1)
			c.gQueue.Set(float64(c.queued.Load()))
			c.mQueued.Inc()
			timer := time.NewTimer(maxWait)
			admitted := false
			select {
			case c.slots <- struct{}{}:
				admitted = true
			case <-ctx.Done():
			case <-timer.C:
			}
			timer.Stop()
			c.queued.Add(-1)
			c.gQueue.Set(float64(c.queued.Load()))
			c.hQueueWait.ObserveSince(qstart)
			if !admitted {
				return ctx, nil, c.refuse(t, tenant, ReasonDeadline, false, 0)
			}
		}
	}

	// Admitted: the session wraps the caller's context, under the default
	// deadline when one applies and under the abort lever — registered
	// for abortWorst to pull — only when a memory quota can pull it.
	s := &Session{Context: ctx, c: c, t: t, tenant: tenant}
	if c.cfg.DefaultDeadline > 0 && !hasDeadline {
		s.Context, s.cancelTimeout = context.WithTimeout(s.Context, c.cfg.DefaultDeadline)
	}
	if c.cfg.MemQuota > 0 {
		s.Context, s.cancel = context.WithCancelCause(s.Context)
		c.mu.Lock()
		t.sessions[s] = struct{}{}
		c.mu.Unlock()
	}
	c.mAdmitted.Inc()
	c.gInflight.Add(1)
	return s, s, nil
}

// sleep waits d or until ctx is done.
func (c *Controller) sleep(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// refuse counts one shed decision, ends the query's hold on its tenant
// (t is nil when the decision fell before it had one) and returns the
// typed error.
func (c *Controller) refuse(t *tenantState, tenant string, reason Reason, retryable bool, after time.Duration) error {
	c.mShed.Inc()
	if t != nil {
		c.mu.Lock()
		t.holds--
		c.mu.Unlock()
	}
	return shedError(tenant, reason, retryable, after)
}

// Session is one admitted query: the context it runs under (SessionFrom
// finds the session in it and in every context derived from it), and its
// handle on the controller, which accounts result-stream bytes against
// the tenant's memory quota and releases the in-flight slot when the
// query finishes.
type Session struct {
	context.Context // the caller's, or it under the default deadline and the abort lever

	c      *Controller
	t      *tenantState
	tenant string

	cancel        context.CancelCauseFunc // the abort lever; nil without a MemQuota
	cancelTimeout context.CancelFunc      // DefaultDeadline timer, if armed

	bytes    atomic.Int64
	released atomic.Bool
	aborted  atomic.Pointer[OverloadError]
}

// Value implements context.Context: the session answers for itself and
// passes every other key to the context it wraps.
func (s *Session) Value(key any) any {
	if key == (sessionKey{}) {
		return s
	}
	return s.Context.Value(key)
}

// Tenant returns the tenant this session was admitted for.
func (s *Session) Tenant() string {
	if s == nil {
		return ""
	}
	return s.tenant
}

// Metered reports whether the bytes a query fetches count against a
// quota: AddBytes is worth calling, and the sizes it is given worth
// computing, only then.
func (s *Session) Metered() bool { return s != nil && s.c.cfg.MemQuota > 0 }

// AddBytes accounts n bytes of result-stream data against the tenant's
// memory quota. When the quota is exceeded the tenant's largest session
// is aborted (its context is cancelled and its subsequent AddBytes
// calls return the overload error); other sessions continue. A nil
// session accounts nothing.
func (s *Session) AddBytes(n int64) error {
	if s == nil {
		return nil
	}
	if e := s.aborted.Load(); e != nil {
		return e
	}
	s.bytes.Add(n)
	total := s.t.bytes.Add(n)
	if q := s.c.cfg.MemQuota; q > 0 && total > q {
		s.c.abortWorst(s.t)
		if e := s.aborted.Load(); e != nil {
			return e
		}
	}
	return nil
}

// Bytes returns the session's accounted result-stream bytes.
func (s *Session) Bytes() int64 {
	if s == nil {
		return 0
	}
	return s.bytes.Load()
}

// Aborted returns the overload error that aborted this session, or nil.
// Engines use it to surface a typed ErrOverload instead of the bare
// context.Canceled the abort provoked. (Err is the context's.)
func (s *Session) Aborted() error {
	if s == nil {
		return nil
	}
	if e := s.aborted.Load(); e != nil {
		return e
	}
	return nil
}

// Release returns the session's in-flight slot and removes its bytes
// from the tenant account. Idempotent.
func (s *Session) Release() {
	if s == nil || !s.released.CompareAndSwap(false, true) {
		return
	}
	s.t.bytes.Add(-s.bytes.Load())
	s.c.mu.Lock()
	delete(s.t.sessions, s)
	s.t.holds--
	s.c.mu.Unlock()
	if s.c.slots != nil {
		<-s.c.slots
	}
	s.c.gInflight.Add(-1)
	if s.cancel != nil {
		s.cancel(nil)
	}
	if s.cancelTimeout != nil {
		s.cancelTimeout()
	}
}

// abortWorst aborts the tenant's largest un-aborted session: it stores
// the typed error on the victim and cancels the victim's context, so
// the query fails with ErrOverload while the process (and the tenant's
// other sessions) survive. Re-checks the quota under the lock so
// concurrent AddBytes calls abort at most one victim per overrun.
func (c *Controller) abortWorst(t *tenantState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.bytes.Load() <= c.cfg.MemQuota {
		return
	}
	var worst *Session
	var worstBytes int64
	for s := range t.sessions {
		if s.aborted.Load() != nil {
			continue
		}
		if b := s.bytes.Load(); worst == nil || b > worstBytes {
			worst, worstBytes = s, b
		}
	}
	if worst == nil {
		return
	}
	e := &OverloadError{Tenant: t.name, Reason: ReasonMemQuota, Retryable: false}
	if worst.aborted.CompareAndSwap(nil, e) {
		// Remove the victim's bytes from the account immediately so the
		// surviving sessions stop tripping the quota while the victim
		// unwinds; Release subtracts only what accrued afterwards.
		t.bytes.Add(-worst.bytes.Swap(0))
		worst.cancel(e)
		c.mMemAborts.Inc()
		c.mShed.Inc()
	}
}

// InFlight reports the number of currently admitted sessions (metrics
// gauge readback for tests).
func (c *Controller) InFlight() int {
	if c == nil || c.slots == nil {
		return -1
	}
	return len(c.slots)
}
