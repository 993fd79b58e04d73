package resilience

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// SourceHealth is one source's live health record: its breaker plus
// success/failure counters and the last observed error. All methods are
// nil-safe so call sites need no resilience-enabled branch.
type SourceHealth struct {
	name    string
	breaker *Breaker

	mu      sync.Mutex
	ok      int64
	fails   int64
	lastErr error
}

// Name returns the source's name.
func (h *SourceHealth) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Breaker returns the source's breaker (nil when disabled).
func (h *SourceHealth) Breaker() *Breaker {
	if h == nil {
		return nil
	}
	return h.breaker
}

// Success records a successful call and closes a half-open breaker.
func (h *SourceHealth) Success(ctx context.Context) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.ok++
	h.mu.Unlock()
	h.breaker.Success(ctx)
}

// Failure records a failed call, feeding the breaker.
func (h *SourceHealth) Failure(ctx context.Context, err error) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.fails++
	h.lastErr = err
	h.mu.Unlock()
	h.breaker.Failure(ctx)
}

// Healthy reports whether the source's breaker is not open. The planner
// uses this to order union fan-out so healthy fragments stream first.
func (h *SourceHealth) Healthy() bool {
	if h == nil {
		return true
	}
	return h.breaker.State() != BreakerOpen
}

// Describe renders a one-line health summary for \sources.
func (h *SourceHealth) Describe() string {
	if h == nil {
		return "breaker=closed"
	}
	h.mu.Lock()
	ok, fails, lastErr := h.ok, h.fails, h.lastErr
	h.mu.Unlock()
	s := fmt.Sprintf("breaker=%s ok=%d fail=%d", h.breaker.State(), ok, fails)
	if lastErr != nil {
		s += fmt.Sprintf(" last-error=%q", lastErr.Error())
	}
	return s
}

// Tracker is the per-source health registry. The catalog owns one; the
// planner and the shell read it. A nil *Tracker reports every source
// healthy.
type Tracker struct {
	policy *Policy

	mu sync.Mutex
	m  map[string]*SourceHealth
}

// NewTracker builds a tracker whose per-source breakers follow p (a nil
// policy disables breakers but still tracks outcomes).
func NewTracker(p *Policy) *Tracker {
	return &Tracker{policy: p, m: make(map[string]*SourceHealth)}
}

// For returns the health record for source name, creating it on first
// use.
func (t *Tracker) For(name string) *SourceHealth {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.m[name]
	if !ok {
		h = &SourceHealth{
			name:    name,
			breaker: NewBreaker(name, t.policy),
		}
		t.m[name] = h
	}
	return h
}

// Healthy reports whether name's breaker is not open; unknown sources
// are presumed healthy.
func (t *Tracker) Healthy(name string) bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	h := t.m[name]
	t.mu.Unlock()
	return h.Healthy()
}

// Degraded reports whether any tracked source's breaker is currently
// open. The admission controller uses it to switch from queueing to
// breaker-style shedding: when part of the federation is already
// failing, buffering more load only deepens the incident.
func (t *Tracker) Degraded() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range t.m {
		if !h.Healthy() {
			return true
		}
	}
	return false
}

// Names returns the tracked source names, sorted.
func (t *Tracker) Names() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.m))
	for n := range t.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
