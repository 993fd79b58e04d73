package plan

import (
	"fmt"
	"slices"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/source"
	"gis/internal/types"
)

// FragScan executes one fragment's share of a global scan: ship Query
// to the fragment's source; translate each row to the global
// representation of the fetched columns (Cols); filter it by
// GlobalResidual; project it to Out. Decomposition produces these.
//
// This file is also the one place that decides what a fragment's
// source is asked to do and what the mediator does with the answer.
// buildFragScan settles the filter (as the catalog splits it), the
// projection and the mediator's half when the scan is built; the
// methods below answer, from the source's advertised capabilities and
// the state of the scan, whether aggregation, an ordering, a limit or a
// shipped join key may follow, and which keys each fragment is shipped.
// The rewrite rules state only algebra and ask here; exec runs it.
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
	// does not evaluate, as the query wrote them but for the fragment's
	// constants folded in (catalog.Fragment.Split), bound over the
	// fetched layout.
	GlobalResidual expr.Expr
	// Out projects the fetched layout to the node's output (positions
	// into Cols); nil when the output is the fetched layout as it is.
	Out []int
	// Pos says where each fetched column sits in a row the source
	// returns, negative for a constant of the fragment; nil when the
	// source's rows are the scan's as they come (also when Query
	// aggregates) and the mediator builds none.
	Pos []int
	// GlobalSchema is the full global table schema (for translation).
	GlobalSchema *types.Schema
	// OutSchema is the produced schema.
	OutSchema *types.Schema
}

// Schema implements Node.
func (s *FragScan) Schema() *types.Schema { return s.OutSchema }

// Describe implements Node.
func (s *FragScan) Describe() string {
	out := "FragScan " + s.Frag.Source + "." + s.Frag.RemoteTable + " [" + s.Query.String() + "]"
	if s.GlobalResidual != nil {
		out += " globalFilter=" + s.GlobalResidual.String()
	}
	return out
}

// buildFragScan constructs one fragment's scan; nil when the fragment
// holds no row the filter passes. A conjunct goes to the source iff
// catalog.Fragment.Split translates it and the source evaluates the
// translation, and the projection iff the source projects; one that
// does not returns whole rows the scan reads by position.
func buildFragScan(cat *catalog.Catalog, tab *catalog.GlobalTable, frag *catalog.Fragment,
	requested []int, filter expr.Expr, outSchema *types.Schema) (*FragScan, error) {

	src, err := cat.Source(frag.Source)
	if err != nil {
		return nil, err
	}
	caps, info := src.Capabilities(), frag.Info()
	pushed, residual, pruned := frag.Split(filter, func(rc expr.Expr) bool { return caps.CanFilter(info, rc) })
	if pruned {
		return nil, nil
	}

	// Fetched columns: requested plus whatever the kept filter reads,
	// which is remapped onto that layout.
	fetch, pos := expr.ColumnLayout(tab.Schema.Len(), requested, residual)
	fs := &FragScan{
		Src:            src,
		Frag:           frag,
		Query:          &source.Query{Table: frag.RemoteTable, Filter: pushed, Limit: -1},
		Cols:           fetch,
		GlobalResidual: expr.Remap(residual, pos),
		GlobalSchema:   tab.Schema,
		OutSchema:      outSchema,
	}
	if !slices.Equal(requested, fetch) {
		fs.Out = make([]int, len(requested))
		for i, c := range requested {
			fs.Out[i] = pos[c]
		}
	}

	// Where each fetched column sits in a row the source returns: in the
	// projection it is asked for when it projects, at its remote
	// position in the whole row when not, -1 for a constant of the
	// fragment. The layout's map is spent, and its storage holds them.
	// The source's rows are the scan's as they come when each fetched
	// column is a plain copy sitting where the output wants it and
	// nothing is kept to filter; otherwise the mediator builds them.
	if caps.Project {
		fs.Query.Columns = make([]int, 0, len(fetch))
	}
	rowPos := pos[:0]
	builds := residual != nil || fs.Out != nil || !caps.Project && len(fetch) != info.Schema.Len()
	for i, g := range fetch {
		m := &frag.Columns[g]
		p := m.RemoteCol
		if p >= 0 && caps.Project {
			p = len(fs.Query.Columns)
			fs.Query.Columns = append(fs.Query.Columns, m.RemoteCol)
		}
		builds = builds || p != i || !m.Identity()
		rowPos = append(rowPos, p)
	}
	if builds {
		fs.Pos = rowPos
	}
	return fs, nil
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

// globalCol resolves an output column to the global column behind it;
// -1 when the scan has no such column (an aggregating scan has none at
// all).
func (s *FragScan) globalCol(outCol int) int {
	switch {
	case s.Out != nil && outCol >= 0 && outCol < len(s.Out):
		return s.Cols[s.Out[outCol]]
	case s.Out == nil && outCol >= 0 && outCol < len(s.Cols):
		return s.Cols[outCol]
	}
	return -1
}

// mapping resolves an output column to the fragment's mapping of the
// global column behind it; nil when the scan has no such column.
func (s *FragScan) mapping(outCol int) *catalog.ColumnMapping {
	g := s.globalCol(outCol)
	if g < 0 {
		return nil
	}
	return &s.Frag.Columns[g]
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

// canBindOn reports whether the scan's source can evaluate an equality
// or IN-list predicate on the given output column against shipped join
// keys, and returns the column's mapping (its RemoteCol is the column
// the predicate names; the keys go through its ToRemote). The key must
// translate back to the very remote value it came from, since the
// source compares for equality: a unit-converted column inverts only up
// to floating-point rounding, so it does not qualify.
func (s *FragScan) canBindOn(outCol int) (*catalog.ColumnMapping, bool) {
	m := s.mapping(outCol)
	if m == nil || !m.InvertsExactly() || !s.Src.Capabilities().CanCompare(s.Frag.Info(), m.RemoteCol) {
		return nil, false
	}
	return m, true
}

// The constants of the semijoin. A left input estimated at fewKeys rows
// or fewer ships its keys whatever the estimates say (one small IN list
// per right fragment); above it, the semijoin must be estimated to move
// less than semiJoinGain of the rows that shipping both sides whole
// would (chooseStrategies). The keys go semiJoinKeyLimit to a
// sub-query, so that a single remote query stays bounded.
const (
	fewKeys          = 64
	semiJoinGain     = 0.8
	semiJoinKeyLimit = 1000
)

// AppendKeyFilters appends to preds the remote predicates that ship the
// semijoin's keys (distinct, sorted) on output column col to the scan,
// one per sub-query of at most semiJoinKeyLimit keys: col = k for one
// key, col IN (…) for more. A key goes only where the fragment's
// partition predicate admits it, as ColumnMapping.ToRemote gives it;
// one it has no remote form for matches no row there and is dropped.
// A fragment given no key is not to be asked.
func (s *FragScan) AppendKeyFilters(preds []expr.Expr, col int, keys []types.Value) ([]expr.Expr, error) {
	m, ok := s.canBindOn(col)
	if !ok {
		return preds, fmt.Errorf("plan: fragment %s.%s cannot accept join keys", s.Frag.Source, s.Frag.RemoteTable)
	}
	where, _ := expr.ColumnRange(s.Frag.Where, s.globalCol(col))
	// Counted first, the constants of every sub-query are one array.
	n := 0
	for _, k := range keys {
		if _, ok := m.ToRemote(k); ok && where.Admits(k) {
			n++
		}
	}
	consts := make([]expr.Const, 0, n)
	for _, k := range keys {
		if rv, ok := m.ToRemote(k); ok && where.Admits(k) {
			consts = append(consts, expr.Const{Val: rv})
		}
	}
	rtype := s.Frag.Info().Schema.Columns[m.RemoteCol].Type
	for len(consts) > 0 {
		chunk := consts[:min(len(consts), semiJoinKeyLimit)]
		consts = consts[len(chunk):]
		ref := expr.NewBoundColRef(m.RemoteCol, rtype, "")
		if len(chunk) == 1 {
			preds = append(preds, expr.NewBinary(expr.OpEq, ref, &chunk[0]))
			continue
		}
		list := make([]expr.Expr, len(chunk))
		for i := range chunk {
			list[i] = &chunk[i]
		}
		preds = append(preds, &expr.InList{E: ref, List: list})
	}
	return preds, nil
}
