package exec

import (
	"strings"

	"gis/internal/expr"
	"gis/internal/plan"
)

// operatorFeedbackKey maps a plan operator to its plan-feedback store
// key (scope, normalized-predicate fingerprint). Only operators whose
// output cardinality the optimizer actually estimates — fragment scans,
// joins, filters, aggregates — are keyed; pass-through operators
// (project, sort, limit) would only echo their input. Semijoin/bind-
// augmented scans never get here (the join runs them itself, not
// through Run), which is right: the planner's estimate describes the
// original predicate, not the key-bound one.
func operatorFeedbackKey(n plan.Node) (scope, fp string, ok bool) {
	switch t := n.(type) {
	case *plan.FragScan:
		// One key per traced scan execution, not per row.
		return "frag:" + t.Frag.Source + "." + t.Frag.RemoteTable, expr.Fingerprint(t.Query.Filter), true
	case *plan.Join:
		return "join:" + t.Kind.String() + "/" + t.Strategy.String(), expr.Fingerprint(t.Cond), true
	case *plan.Filter:
		return "filter", expr.Fingerprint(t.Pred), true
	case *plan.Aggregate:
		var b strings.Builder
		for i, g := range t.GroupBy {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(expr.Fingerprint(g))
		}
		return "agg", b.String(), true
	default:
		return "", "", false
	}
}
