package resilience

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// SourceOutcome is what happened to one source's share of a query:
// which operator consumed it, how many rows it yielded, and the error
// that degraded it (nil for sources that completed).
type SourceOutcome struct {
	// Source is the component system's name ("?" when a plan branch has
	// no resolvable source).
	Source string
	// Op names the consuming operator: "union" or "semijoin".
	Op string
	// Rows is how many rows the source delivered before finishing or
	// failing.
	Rows int64
	// Err is the degrading error, nil on success.
	Err error
}

// PartialResultError is the typed verdict of a degraded query: the
// result is usable but incomplete, and Outcomes says exactly which
// sources contributed and which were lost. It is returned alongside
// rows (Result.Partial), not instead of them — unless every source
// failed, in which case it is the query's error.
type PartialResultError struct {
	Outcomes []SourceOutcome
}

// Error implements error.
func (e *PartialResultError) Error() string {
	failed := e.Failed()
	var b strings.Builder
	fmt.Fprintf(&b, "partial result: %d of %d source branch(es) failed", len(failed), len(e.Outcomes))
	for _, o := range failed {
		fmt.Fprintf(&b, "; %s/%s: %v", o.Source, o.Op, o.Err)
	}
	return b.String()
}

// Failed returns the outcomes that degraded.
func (e *PartialResultError) Failed() []SourceOutcome {
	var out []SourceOutcome
	for _, o := range e.Outcomes {
		if o.Err != nil {
			out = append(out, o)
		}
	}
	return out
}

// AllFailed reports whether no source branch completed — the caller
// should surface a hard error rather than an empty "partial" result.
func (e *PartialResultError) AllFailed() bool {
	for _, o := range e.Outcomes {
		if o.Err == nil {
			return false
		}
	}
	return len(e.Outcomes) > 0
}

// Outcomes collects per-source outcomes during a degradable query. Its
// presence on the context is the signal that partial results are
// allowed: exec's merge, its one fan-out, records failed branches here
// and continues, instead of failing the query. A nil *Outcomes records
// nothing and disables degradation.
type Outcomes struct {
	mu   sync.Mutex
	list []SourceOutcome
}

// Record appends one outcome.
func (o *Outcomes) Record(so SourceOutcome) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.list = append(o.list, so)
	o.mu.Unlock()
}

// Partial returns the typed partial-result error if any recorded
// outcome failed, else nil.
func (o *Outcomes) Partial() *PartialResultError {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, so := range o.list {
		if so.Err != nil {
			return &PartialResultError{Outcomes: append([]SourceOutcome(nil), o.list...)}
		}
	}
	return nil
}

type outcomesKey struct{}

// WithOutcomes arms partial-result collection on the context and
// returns the collector the engine will consult after execution.
func WithOutcomes(ctx context.Context) (context.Context, *Outcomes) {
	o := &Outcomes{}
	return context.WithValue(ctx, outcomesKey{}, o), o
}

// OutcomesFrom returns the context's collector, or nil when the query
// does not allow degradation.
func OutcomesFrom(ctx context.Context) *Outcomes {
	o, _ := ctx.Value(outcomesKey{}).(*Outcomes)
	return o
}
