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
	Query source.Query
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
	// source's rows are the scan's as they come and the mediator builds
	// none. Of a scan whose Query aggregates, Cols and Pos are its group
	// keys (a constant key is not asked for), and a row it builds has
	// them followed by Aggs' columns.
	Pos []int
	// Aggs maps each aggregate an aggregating scan's source returns up
	// to the global representation; set with Pos.
	Aggs []AggUp
	// GlobalSchema is the full global table schema (for translation).
	GlobalSchema *types.Schema
	// OutSchema is the produced schema.
	OutSchema *types.Schema

	// like is the scan before this one in its union when this one
	// follows it (follow): every field but Src, Frag and Query.Table is
	// like's. nil when the scan has its own.
	like *FragScan
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

// buildFragScan makes s the scan of frag from src for gs, whose
// requested columns over the full global schema are requested, and
// reports false, leaving s as it is, when the fragment holds no row the
// filter passes. A conjunct goes to the source iff catalog.Fragment.Split
// translates it and the source evaluates the translation, and the
// projection iff the source projects; one that does not returns whole
// rows the scan reads by position.
func buildFragScan(s *FragScan, gs *GlobalScan, src source.Source, frag *catalog.Fragment, requested []int) bool {
	tab := gs.Table
	caps, info := src.Capabilities(), frag.Info()
	pushed, residual, pruned := frag.Split(gs.Filter, func(rc expr.Expr) bool { return caps.CanFilter(info, rc) })
	if pruned {
		return false
	}

	// Fetched columns: requested plus whatever the kept filter reads,
	// which is remapped onto that layout. The integer layout — where each
	// global column is fetched, what is fetched, the projection out of it
	// and the columns the source is asked for — is carved from the block
	// pruning set aside, or else from one of its own.
	fetched := len(requested) + expr.OtherColumns(residual, func(c int) bool { return slices.Contains(requested, c) })
	width := tab.Schema.Len()
	block := gs.layout
	if n := layoutInts(width, len(requested), fetched, expr.Ascending(requested), caps.Project); len(block) >= n {
		gs.layout = nil
	} else {
		block = make([]int, n)
	}
	pos, block := block[:width:width], block[width:]
	fetch := expr.ColumnLayout(requested, residual, pos, block)
	*s = FragScan{
		Src:            src,
		Frag:           frag,
		Query:          source.Query{Table: frag.RemoteTable, Filter: pushed, Limit: -1},
		Cols:           fetch,
		GlobalResidual: expr.Remap(residual, pos),
		GlobalSchema:   tab.Schema,
		OutSchema:      gs.Schema(),
	}
	if !slices.Equal(requested, fetch) {
		block = block[len(fetch):]
		s.Out, block = block[:len(requested):len(requested)], block[len(requested):]
		for i, c := range requested {
			s.Out[i] = pos[c]
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
		s.Query.Columns = block[:0:len(fetch)]
	}
	rowPos := pos[:0]
	builds := residual != nil || s.Out != nil || !caps.Project && len(fetch) != info.Schema.Len()
	for i, g := range fetch {
		m := &frag.Columns[g]
		p := m.RemoteCol
		if p >= 0 && caps.Project {
			p = len(s.Query.Columns)
			s.Query.Columns = append(s.Query.Columns, m.RemoteCol)
		}
		builds = builds || p != i || !m.Identity()
		rowPos = append(rowPos, p)
	}
	if builds {
		s.Pos = rowPos
	}
	return true
}

// layoutInts is how many ints a fragment scan's integer layout takes, of
// a table width columns wide, for requested columns — ascending when
// ordered — of which at most fetched are fetched: where each global
// column is fetched (then where each fetched one sits in a source's row),
// the fetched columns and the projection to the requested ones unless
// those are the fetched ones, and the columns the source is asked for
// when it projects.
func layoutInts(width, requested, fetched int, ordered, project bool) int {
	n := width
	if fetched > requested || !ordered {
		n += fetched + requested
	}
	if project {
		n += fetched
	}
	return n
}

// follow makes s, whose Src and Frag are set, prev's twin: its fragment
// maps like prev's and its source is as capable, so the plan asks it
// what prev is asked and does with the answer what prev does. It shares
// prev's query, layout and partial aggregate — which is why no rewrite
// writes into a FragScan's slices, expressions or schemas, but replaces
// the fields it changes — and keeps its own source, fragment, table
// name and record under EXPLAIN ANALYZE. A rewrite that changes prev
// has s follow it again (s.like).
func (s *FragScan) follow(prev *FragScan) {
	src, frag := s.Src, s.Frag
	*s = *prev
	s.Src, s.Frag, s.Query.Table, s.like = src, frag, frag.RemoteTable, prev
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

// column resolves e, a bare reference to an output column, to the
// fragment's mapping of the global column behind it, and that column;
// nil when e is no such reference.
func (s *FragScan) column(e expr.Expr) (*catalog.ColumnMapping, int) {
	if ref, ok := e.(*expr.ColRef); ok {
		if g := s.globalCol(ref.Index); g >= 0 {
			return &s.Frag.Columns[g], g
		}
	}
	return nil, -1
}

// identityCol resolves e, a bare reference to an output column, to the
// remote column it is a plain copy of. Only such a column can be
// ordered by at the source, which sorts in its own representation; an
// aggregate resolves its columns by column and maps its answer up.
func (s *FragScan) identityCol(e expr.Expr) (int, bool) {
	m, _ := s.column(e)
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

// aggregate asks the source for the aggregation instead of the rows:
// groupBy and aggs name remote columns. The filter stays; the
// projection and any ordering are moot. What the mediator does with the
// answer (Cols, Pos, Aggs, OutSchema) is the caller's to set.
func (s *FragScan) aggregate(groupBy []int, aggs []source.AggSpec) {
	s.Query = source.Query{Table: s.Query.Table, Filter: s.Query.Filter, GroupBy: groupBy, Aggs: aggs, Limit: -1}
	s.Out = nil
}

// keys is how many group keys lead an aggregating scan's output.
func (s *FragScan) keys() int {
	if s.Pos != nil {
		return len(s.Pos)
	}
	return len(s.Query.GroupBy)
}

// AggUp maps one aggregate a source returns up to the global
// representation: the value at Col of the source's row, times Scale and
// plus Offset once, or, where Cnt is not negative, Offset times the
// count at Cnt (Scale·SUM(x) + Offset·COUNT(x) is the SUM of x's global
// values). A Scale of 0 passes the value as it is, and NULL stays NULL.
type AggUp struct {
	Col, Cnt      int
	Scale, Offset float64
}

// Value is the global value of the aggregate in the source's row r.
func (a AggUp) Value(r types.Row) types.Value {
	v := r[a.Col]
	if a.Scale == 0 || v.IsNull() {
		return v
	}
	offset := a.Offset
	if a.Cnt >= 0 {
		offset *= r[a.Cnt].AsFloat()
	}
	return types.NewFloat(v.AsFloat()*a.Scale + offset)
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

// KeyQueries says what each fragment of right, a fragment scan or a
// union of them, is asked when a semijoin ships its keys (distinct,
// sorted) on output column col: one merge input and sub-query per
// semiJoinKeyLimit keys a fragment is sent, its scan's query with
// col = k for one key, col IN (…) for more, ANDed to its filter. A key
// goes only where the fragment's partition predicate admits it, as
// ColumnMapping.ToRemote gives it; one it has no remote form for matches
// no row there and is dropped. A fragment given no key is not to be
// asked. A scan that follows the one before it (FragScan.follow) and
// whose partition predicate admits the same keys is asked that one's
// sub-queries, on its own table.
func KeyQueries(right Node, col int, keys []types.Value) (ins []Node, qs []*source.Query, err error) {
	scans := FragScans(right)
	if scans == nil {
		return nil, nil, fmt.Errorf("plan: a semijoin's right side is not fragment scans")
	}
	ins, qs = make([]Node, 0, len(scans)), make([]*source.Query, 0, len(scans))
	var prevWhere expr.Range
	from := 0 // where the previous scan's sub-queries start
	for i, s := range scans {
		m, ok := s.canBindOn(col)
		if !ok {
			return nil, nil, fmt.Errorf("plan: fragment %s.%s cannot accept join keys", s.Frag.Source, s.Frag.RemoteTable)
		}
		where, _ := expr.ColumnRange(s.Frag.Where, s.globalCol(col))
		start := len(qs)
		if i > 0 && s.like == scans[i-1] && admitAlike(where, prevWhere, keys) {
			for _, q := range qs[from:start] {
				if q.Table != s.Query.Table {
					cp := *q
					cp.Table, q = s.Query.Table, &cp
				}
				qs = append(qs, q)
			}
		} else {
			qs = s.appendKeyQueries(qs, m, where, keys)
		}
		for len(ins) < len(qs) {
			ins = append(ins, s)
		}
		from, prevWhere = start, where
	}
	return ins, qs, nil
}

// admitAlike reports whether a and b admit the same of keys.
func admitAlike(a, b expr.Range, keys []types.Value) bool {
	for _, k := range keys {
		if a.Admits(k) != b.Admits(k) {
			return false
		}
	}
	return true
}

// appendKeyQueries appends the sub-queries that ship the keys where
// admits to the scan's column mapped by m. Counted first, the constants
// of every sub-query are one array, and the sub-queries one more.
func (s *FragScan) appendKeyQueries(qs []*source.Query, m *catalog.ColumnMapping, where expr.Range, keys []types.Value) []*source.Query {
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
	block := make([]source.Query, 0, (n+semiJoinKeyLimit-1)/semiJoinKeyLimit)
	for len(consts) > 0 {
		chunk := consts[:min(len(consts), semiJoinKeyLimit)]
		consts = consts[len(chunk):]
		var pred expr.Expr
		ref := expr.NewBoundColRef(m.RemoteCol, rtype, "")
		if len(chunk) == 1 {
			pred = expr.NewBinary(expr.OpEq, ref, &chunk[0])
		} else {
			list := make([]expr.Expr, len(chunk))
			for i := range chunk {
				list[i] = &chunk[i]
			}
			pred = &expr.InList{E: ref, List: list}
		}
		block = append(block, s.Query)
		q := &block[len(block)-1]
		q.Filter = expr.Conjoin([]expr.Expr{q.Filter, pred})
		qs = append(qs, q)
	}
	return qs
}
