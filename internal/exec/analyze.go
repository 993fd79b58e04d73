package exec

import (
	"fmt"
	"strings"
	"time"

	"gis/internal/obs"
	"gis/internal/plan"
)

// Annotate renders EXPLAIN ANALYZE's per-node annotation from a
// finished statement's trace. A plan node may have run many times
// (parallel-union branches, a semijoin's key chunks): each execution
// left its own record, and the per-node sums are taken here. Exec spans carry
// the operator's output and inclusive time — beside the planner's
// estimate of that output, where it made one: est= against rows= is
// where a misestimate is read — ship spans the rows and bytes a fragment
// scan fetched before mediator-side compensation. The right scan of a
// semijoin is run by the join itself, key chunk by key chunk: it has
// ship records and no exec record, and shows the wire half alone.
func Annotate(tr *obs.Trace) func(plan.Node) string {
	type sum struct {
		rows, bytes, wireRows, wireBytes int64
		spent, close                     time.Duration
		est                              float64 // of one execution: the node's, not a sum
		hasEst                           bool
		ran                              bool // an exec record; false: wire records alone
	}
	sums := map[plan.Node]*sum{}
	for _, kind := range []obs.SpanKind{obs.SpanExec, obs.SpanShip} {
		for _, sp := range tr.FindAll(kind) {
			st, _ := sp.Stats()
			n, ok := st.Op.(plan.Node)
			if !ok {
				continue
			}
			s := sums[n]
			if s == nil {
				s = &sum{}
				sums[n] = s
			}
			if kind == obs.SpanShip {
				s.wireRows += st.Rows
				s.wireBytes += st.Bytes
				continue
			}
			s.ran = true
			s.est, s.hasEst = st.EstRows, st.HasEst
			s.rows += st.Rows
			s.bytes += st.Bytes
			s.spent += st.Open + st.Next
			s.close += st.Close
		}
	}
	return func(n plan.Node) string {
		s := sums[n]
		if s == nil {
			return " (never executed)"
		}
		var parts []string
		if s.ran {
			parts = append(parts, fmt.Sprintf("rows=%d", s.rows))
			if s.hasEst {
				parts = append(parts, fmt.Sprintf("est=%d", int64(s.est)))
			}
			parts = append(parts, fmt.Sprintf("bytes=%d time=%s", s.bytes, s.spent.Round(time.Microsecond)))
			if c := s.close.Round(time.Microsecond); c > 0 {
				parts = append(parts, fmt.Sprintf("close=%s", c))
			}
		}
		if !s.ran || s.wireRows > 0 || s.wireBytes > 0 {
			parts = append(parts, fmt.Sprintf("wire_rows=%d wire_bytes=%d", s.wireRows, s.wireBytes))
		}
		return " (" + strings.Join(parts, " ") + ")"
	}
}
