package plan

import (
	"context"

	"gis/internal/catalog"
	"gis/internal/obs"
)

// Options control the optimizer. The zero value is NOT usable; call
// DefaultOptions. Every switch exists so the evaluation harness can
// ablate one rule at a time (experiment F9).
type Options struct {
	// FoldConstants simplifies constant sub-expressions.
	FoldConstants bool
	// PushFilters sinks predicates toward (and into) the scans.
	PushFilters bool
	// PruneColumns trims unused columns so sources ship less data.
	PruneColumns bool
	// JoinOrder selects the join-order search algorithm; OrderSyntactic
	// is no search, the order as written.
	JoinOrder JoinOrderAlgo
	// ForceStrategy overrides the per-join distributed strategy
	// decision (StrategyAuto = cost-based).
	ForceStrategy Strategy
	// ParallelFragments fetches fragment unions concurrently.
	ParallelFragments bool
	// PushAggregates sinks aggregation into capable sources (exact for
	// single fragments, two-phase partial aggregation across unions).
	PushAggregates bool
	// PushTopK sinks ORDER BY / LIMIT into capable sources (per-fragment
	// top-k for unions).
	PushTopK bool
}

// DefaultOptions enables every optimization.
func DefaultOptions() *Options {
	return &Options{
		FoldConstants:     true,
		PushFilters:       true,
		PruneColumns:      true,
		JoinOrder:         OrderDP,
		ForceStrategy:     StrategyAuto,
		ParallelFragments: true,
		PushAggregates:    true,
		PushTopK:          true,
	}
}

// Optimize runs the rewrite pipeline and decomposes the plan against the
// catalog, producing an executable plan: constants fold, filters sink
// into the scans, columns are pruned, the scans are decomposed into
// fragment scans, and then the passes that price the plan — join order,
// join strategy, aggregate pushdown, Project composition, top-k pushdown
// — read the estimates of what each fragment's source is asked. Every
// node's schema is stored before the plan is returned (settle), so that
// the plan is only read from then on and may run twice at once. ctx only
// carries observability state (the decompose phase gets its own trace
// span); cancellation is not checked — optimization is CPU-bound and short.
func Optimize(ctx context.Context, n Node, cat *catalog.Catalog, opts *Options) (Node, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	if opts.FoldConstants {
		n = foldConstants(n)
	}
	if opts.PushFilters {
		n = pushDownFilters(n)
	}
	if opts.PruneColumns {
		n = pruneColumns(n)
	}
	_, dspan := obs.StartSpan(ctx, obs.SpanDecompose, "")
	n, err := decompose(n, cat, opts.ParallelFragments)
	dspan.End()
	if err != nil {
		return nil, err
	}
	n = orderJoins(n, opts.JoinOrder)
	n = chooseStrategies(n, opts.ForceStrategy)
	if opts.PushAggregates {
		n = pushAggregates(n)
	}
	n = composeProjects(n)
	if opts.PushTopK {
		n = pushTopK(n)
	}
	settle(n)
	return n, nil
}
