package resilience

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gis/internal/obs"
)

// BreakerState is the classic three-state circuit breaker automaton.
type BreakerState uint8

const (
	// BreakerClosed passes calls through, counting consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls immediately (sheds load) until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", uint8(s))
	}
}

// BreakerOpenError is returned (without touching the network) when a
// source's breaker is shedding load.
type BreakerOpenError struct {
	Source string
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("resilience: source %s: circuit breaker open", e.Source)
}

// mShortCircuits counts the calls an open breaker refused.
var mShortCircuits = obs.Default().Counter("resilience.breaker.short_circuits")

// Breaker is one source's circuit breaker. A nil *Breaker always
// allows (breaker disabled).
type Breaker struct {
	source    string
	threshold int
	cooldown  time.Duration
	stateG    *obs.Gauge

	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a breaker for source, or nil when the policy
// disables breaking.
func NewBreaker(source string, p *Policy) *Breaker {
	if p == nil || p.BreakerThreshold <= 0 {
		return nil
	}
	return &Breaker{
		source:    source,
		threshold: p.BreakerThreshold,
		cooldown:  p.BreakerCooldown,
		stateG:    obs.Default().Gauge("resilience.breaker.state." + source),
	}
}

// State returns the current state (recomputing open→half-open expiry).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && time.Since(b.openedAt) >= b.cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// Allow decides whether a call may proceed. Open breakers reject with
// *BreakerOpenError until the cooldown elapses, then admit a single
// half-open probe; concurrent calls during the probe are still
// rejected. Transitions are counted and, when ctx carries a trace,
// recorded as breaker spans.
func (b *Breaker) Allow(ctx context.Context) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return nil
	case BreakerOpen:
		if time.Since(b.openedAt) >= b.cooldown {
			b.transition(ctx, BreakerHalfOpen)
			b.probing = true
			b.mu.Unlock()
			return nil
		}
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			b.mu.Unlock()
			return nil
		}
	default:
	}
	b.mu.Unlock()
	mShortCircuits.Inc()
	return &BreakerOpenError{Source: b.source}
}

// Success reports a successful call, closing a half-open breaker.
func (b *Breaker) Success(ctx context.Context) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.fails = 0
	if b.state != BreakerClosed {
		b.transition(ctx, BreakerClosed)
	}
	b.probing = false
	b.mu.Unlock()
}

// Failure reports a failed call: a failed half-open probe re-opens the
// breaker immediately; in the closed state the threshold of consecutive
// failures opens it.
func (b *Breaker) Failure(ctx context.Context) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.fails++
	switch b.state {
	case BreakerHalfOpen:
		b.transition(ctx, BreakerOpen)
		b.openedAt = time.Now()
		b.probing = false
	case BreakerClosed:
		if b.fails >= b.threshold {
			b.transition(ctx, BreakerOpen)
			b.openedAt = time.Now()
		}
	default:
	}
	b.mu.Unlock()
}

// transition flips the state, updating the gauge and — when tracing —
// a zero-width breaker span. Callers hold b.mu.
func (b *Breaker) transition(ctx context.Context, to BreakerState) {
	from := b.state
	b.state = to
	b.stateG.Set(float64(to))
	if obs.Enabled(ctx) {
		_, sp := obs.StartSpan(ctx, obs.SpanBreaker, b.source)
		sp.SetAttr("transition", from.String()+"->"+to.String())
		sp.End()
	}
}
