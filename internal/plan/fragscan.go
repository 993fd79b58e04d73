package plan

import (
	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// FragScan executes one fragment's share of a global scan: ship Query
// to the fragment's source; translate each row to the global
// representation of the fetched columns (Cols); filter it by
// GlobalResidual; project it to Out. Decomposition produces these. A
// scan whose Query aggregates has none of the mediator half: the
// source's rows are its output as they come.
//
// This file and buildFragScan are also the one place that decides what
// a fragment's source is asked to do. buildFragScan settles the filter,
// conjunct by conjunct, and the projection when the scan is built; the
// methods below answer, from the source's advertised capabilities and
// the state of the scan, whether aggregation, an ordering, a limit or a
// shipped join key may follow. The rewrite rules state only algebra and
// ask here.
type FragScan struct {
	Src   source.Source
	Frag  *catalog.Fragment
	Query *source.Query
	// Cols are the fetched global columns, in ascending order: the
	// requested ones and those only GlobalResidual reads. The source is
	// asked for the remote columns behind them when it projects
	// (Query.Columns), and for whole rows, read by position, when not.
	Cols []int
	// GlobalResidual is what the source was not asked to filter: the
	// conjuncts that do not translate into its representation or that it
	// does not evaluate, as the query wrote them, bound over the fetched
	// layout.
	GlobalResidual expr.Expr
	// Out projects the fetched layout to the node's output (positions
	// into Cols).
	Out []int
	// GlobalSchema is the full global table schema (for translation).
	GlobalSchema *types.Schema
	// OutSchema is the produced schema.
	OutSchema *types.Schema
}

// Schema implements Node.
func (s *FragScan) Schema() *types.Schema { return s.OutSchema }

// Children implements Node.
func (s *FragScan) Children() []Node { return nil }

// Describe implements Node.
func (s *FragScan) Describe() string {
	out := "FragScan " + s.Frag.Source + "." + s.Frag.RemoteTable + " [" + s.Query.String() + "]"
	if s.GlobalResidual != nil {
		out += " globalFilter=" + s.GlobalResidual.String()
	}
	return out
}

// FragScans returns the scans n is made of when n is a fragment scan or
// a UNION ALL of fragment scans — the shape per-fragment work (partial
// aggregation, distributed top-k, shipped join keys) applies to — and
// nil otherwise.
func FragScans(n Node) []*FragScan {
	switch t := n.(type) {
	case *FragScan:
		return []*FragScan{t}
	case *Union:
		if !t.All {
			return nil
		}
		out := make([]*FragScan, len(t.Inputs))
		for i, in := range t.Inputs {
			fs, ok := in.(*FragScan)
			if !ok {
				return nil
			}
			out[i] = fs
		}
		return out
	default:
		return nil
	}
}

// mapping resolves an output column to the fragment's mapping of the
// global column behind it; nil when the scan has no such column (an
// aggregating scan has none at all).
func (s *FragScan) mapping(outCol int) *catalog.ColumnMapping {
	if outCol < 0 || outCol >= len(s.Out) {
		return nil
	}
	return &s.Frag.Columns[s.Cols[s.Out[outCol]]]
}

// identityCol resolves an output column to the remote column it is a
// plain copy of. Only such a column can be grouped, aggregated or
// ordered by at the source, which works in its own representation.
func (s *FragScan) identityCol(outCol int) (int, bool) {
	m := s.mapping(outCol)
	if m == nil || !m.Identity() {
		return -1, false
	}
	return m.RemoteCol, true
}

// pristine reports whether the source's rows are, row for row, the
// scan's rows: nothing is kept for the mediator to filter, and no
// aggregate or limit is asked yet. Only then may an aggregate, an
// ordering or a limit move to the source — any of them over rows the
// mediator has yet to filter, or over an aggregate's or a limit's
// output, would answer a different question. (Translating and projecting
// a row changes neither how many there are nor their order.)
func (s *FragScan) pristine() bool {
	return s.GlobalResidual == nil && !s.Query.HasAggregation() && s.Query.Limit < 0
}

// acceptsAggregate reports whether the source may be asked to group and
// aggregate the scan's rows.
func (s *FragScan) acceptsAggregate() bool {
	return s.pristine() && s.Src.Capabilities().Aggregate
}

// acceptsOrder reports whether the source may be asked to order the
// scan's rows; one that already does is not asked again.
func (s *FragScan) acceptsOrder() bool {
	return s.pristine() && len(s.Query.OrderBy) == 0 && s.Src.Capabilities().Sort
}

// acceptsLimit reports whether the source may be asked to stop after a
// number of the scan's rows.
func (s *FragScan) acceptsLimit() bool {
	return s.pristine() && s.Src.Capabilities().Limit
}

// aggregated returns the scan that asks the source for the aggregation
// instead of the rows: groupBy and aggs name remote columns, out is the
// schema of what comes back. The filter stays; the projection and any
// ordering are moot.
func (s *FragScan) aggregated(groupBy []int, aggs []source.AggSpec, out *types.Schema) *FragScan {
	return &FragScan{
		Src: s.Src, Frag: s.Frag,
		Query:        &source.Query{Table: s.Query.Table, Filter: s.Query.Filter, GroupBy: groupBy, Aggs: aggs, Limit: -1},
		GlobalSchema: s.GlobalSchema,
		OutSchema:    out,
	}
}

// CanBindOn reports whether the scan's source can evaluate an equality
// or IN-list predicate on the given output column against shipped join
// keys, and returns the column's mapping (its RemoteCol is the column
// the predicate names; the keys go through its ToRemote). The key must
// translate back to the very remote value it came from, since the
// source compares for equality: a unit-converted column inverts only up
// to floating-point rounding, so it does not qualify. Used by the
// semijoin strategy chooser and by the executor shipping the keys.
func (s *FragScan) CanBindOn(outCol int) (*catalog.ColumnMapping, bool) {
	m := s.mapping(outCol)
	if m == nil || !m.InvertsExactly() || !s.Src.Capabilities().CanCompare(s.Frag.Info(), m.RemoteCol) {
		return nil, false
	}
	return m, true
}
