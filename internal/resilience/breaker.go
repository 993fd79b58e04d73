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

// Breaker is one source's health, learned from the calls made to it:
// the circuit breaker's state, the source's ok and fail totals and its
// last error. The Guarded wrapper around the source keeps it.
type Breaker struct {
	source    string
	threshold int
	cooldown  time.Duration
	stateG    *obs.Gauge

	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive, toward threshold
	openedAt time.Time
	probing  bool
	ok       int64
	failed   int64
	lastErr  error
}

// NewBreaker builds source's breaker under p. A policy with no
// BreakerThreshold (or none at all) yields a breaker that never opens
// but still counts outcomes.
func NewBreaker(source string, p *Policy) *Breaker {
	b := &Breaker{source: source, stateG: obs.Default().Gauge("resilience.breaker.state." + source)}
	if p != nil {
		b.threshold, b.cooldown = p.BreakerThreshold, p.BreakerCooldown
	}
	return b
}

// State returns the current state (recomputing open→half-open expiry).
func (b *Breaker) State() BreakerState {
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

// Record reports one call's outcome. A call whose caller gave up
// (ctx.Err() is set) is nobody's failure: it counts nothing, but gives
// a half-open probe back so the next call may probe. Otherwise a
// success closes the breaker; a failure re-opens a half-open breaker
// at once, and in the closed state the threshold of consecutive
// failures opens it.
func (b *Breaker) Record(ctx context.Context, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	switch {
	case ctx.Err() != nil:
	case err == nil:
		b.ok++
		b.fails = 0
		if b.state != BreakerClosed {
			b.transition(ctx, BreakerClosed)
		}
	default:
		b.failed++
		b.lastErr = err
		b.fails++
		if b.state == BreakerHalfOpen || b.state == BreakerClosed && b.threshold > 0 && b.fails >= b.threshold {
			b.transition(ctx, BreakerOpen)
			b.openedAt = time.Now()
		}
	}
}

// Describe renders a one-line summary for gisql's \sources.
func (b *Breaker) Describe() string {
	st := b.State()
	b.mu.Lock()
	defer b.mu.Unlock()
	s := fmt.Sprintf("breaker=%s ok=%d fail=%d", st, b.ok, b.failed)
	if b.lastErr != nil {
		s += fmt.Sprintf(" last-error=%q", b.lastErr.Error())
	}
	return s
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
