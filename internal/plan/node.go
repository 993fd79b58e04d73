// Package plan implements the mediator's query planner: logical plan
// construction from the SQL AST, rewrite rules (constant folding,
// predicate pushdown, projection pruning), cost-based join ordering,
// distributed join strategy selection (ship-all / semijoin),
// and capability-based decomposition of global table scans into
// per-fragment remote queries with mediator-side compensation.
package plan

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/stats"
	"gis/internal/types"
)

// Node is a logical (and, after decomposition, physical) plan operator.
// Its inputs are reached through EachInput, its expressions through
// eachExpr.
type Node interface {
	// Schema describes the rows the node produces.
	Schema() *types.Schema
	// Describe renders one line for EXPLAIN output.
	Describe() string
}

// GlobalScan reads a global table; the optimizer pushes filters and
// projections into it, and decomposition replaces it with fragment scans.
type GlobalScan struct {
	Table *catalog.GlobalTable
	// Cols are the global column positions to produce (nil = all).
	Cols []int
	// Filter is a bound predicate over the *full* global schema that
	// the scan must apply before projecting to Cols.
	Filter expr.Expr
	// schema caches the output shape.
	schema *types.Schema
	// Alias qualifies output columns (FROM t AS x).
	Alias string
	// layout is where the integer layout of the scan's first fragment
	// scan is carved from (buildFragScan): the rest of the block pruning
	// cut Cols from, sized for it; nil when there is none to carve.
	layout []int
}

// NewGlobalScan builds a scan of every column of table.
func NewGlobalScan(t *catalog.GlobalTable, alias string) *GlobalScan {
	return &GlobalScan{Table: t, Alias: alias}
}

// Schema implements Node. A scan of every column, unaliased or under the
// table's own name, produces the table's own schema, which the catalog
// built once and every such scan shares; only a real alias or a pruned
// scan builds its own.
func (s *GlobalScan) Schema() *types.Schema {
	if s.schema != nil {
		return s.schema
	}
	base := s.Table.Schema.Columns
	every := len(s.Cols) == len(base) || s.Cols == nil
	for i := 0; every && i < len(s.Cols); i++ {
		every = s.Cols[i] == i
	}
	switch {
	case every && s.Alias == "":
		s.schema = s.Table.Schema
	case every && s.Alias == s.Table.Name:
		s.schema = s.Table.Own
	default:
		var cols []types.Column
		if s.Cols == nil {
			cols = slices.Clone(base)
		} else {
			cols = make([]types.Column, len(s.Cols))
			for i, c := range s.Cols {
				cols[i] = base[c]
			}
		}
		if s.Alias != "" {
			for i := range cols {
				cols[i].Table = s.Alias
			}
		}
		s.schema = &types.Schema{Columns: cols}
	}
	return s.schema
}

// Describe implements Node.
func (s *GlobalScan) Describe() string {
	out := "GlobalScan " + s.Table.Name
	if s.Alias != "" && s.Alias != s.Table.Name {
		out += " AS " + s.Alias
	}
	if s.Filter != nil {
		out += " filter=" + s.Filter.String()
	}
	if s.Cols != nil {
		var b strings.Builder
		b.WriteString(" cols=[")
		for i, c := range s.Cols {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(c))
		}
		b.WriteByte(']')
		out += b.String()
	}
	return out
}

// invalidate clears the cached schema after mutation.
func (s *GlobalScan) invalidate() { s.schema = nil }

// Filter keeps rows satisfying Pred.
type Filter struct {
	Pred  expr.Expr
	Input Node
}

// Schema implements Node.
func (f *Filter) Schema() *types.Schema { return f.Input.Schema() }

// Describe implements Node.
func (f *Filter) Describe() string { return "Filter " + f.Pred.String() }

// Project computes expressions over input rows.
type Project struct {
	Exprs []expr.Expr
	Names []string
	Input Node

	schema *types.Schema
}

// Schema implements Node.
func (p *Project) Schema() *types.Schema {
	if p.schema == nil {
		cols := make([]types.Column, len(p.Exprs))
		for i, e := range p.Exprs {
			cols[i] = exprColumn(e, p.Names[i], p.Input)
		}
		p.schema = &types.Schema{Columns: cols}
	}
	return p.schema
}

// exprColumn describes the column e computes over in's rows: named name,
// else as the column e references, else as e prints, and of the table
// of the column it references.
func exprColumn(e expr.Expr, name string, in Node) types.Column {
	table := ""
	if c, ok := e.(*expr.ColRef); ok {
		if name == "" {
			name = c.Name
		}
		table = c.Table
		if table == "" && c.Index >= 0 && c.Index < in.Schema().Len() {
			table = in.Schema().Columns[c.Index].Table
		}
	}
	if name == "" {
		name = e.String()
	}
	return types.Column{Table: table, Name: name, Type: e.ResultType(), Nullable: true}
}

// Describe implements Node.
func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// JoinKind enumerates logical join types. A comma or CROSS join is an
// inner join with no condition.
type JoinKind uint8

// Logical join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "inner"
	case JoinLeft:
		return "left"
	default:
		return "JoinKind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Strategy selects the distributed execution tactic for a join.
type Strategy uint8

// Join strategies.
const (
	// StrategyAuto lets the optimizer cost the options.
	StrategyAuto Strategy = iota
	// StrategyShipAll fetches both inputs wholesale and hash-joins at
	// the mediator.
	StrategyShipAll
	// StrategySemiJoin fetches the left side, ships its distinct join
	// keys to the right source as an IN filter, then joins.
	StrategySemiJoin
)

func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyShipAll:
		return "ship-all"
	case StrategySemiJoin:
		return "semijoin"
	default:
		return "Strategy(" + strconv.Itoa(int(s)) + ")"
	}
}

// Join combines two inputs. Cond is bound over the concatenated schema
// (left columns first), which is also the output schema; a nil Cond
// pairs every left row with every right row.
type Join struct {
	Kind     JoinKind
	Cond     expr.Expr
	L, R     Node
	Strategy Strategy

	// EquiL/EquiR list the column positions of equi-join keys extracted
	// from Cond (left positions in L's schema, right in R's), set by the
	// optimizer; empty means every right row is a candidate for every
	// left row (nested loops).
	EquiL, EquiR []int

	schema *types.Schema
	// costed is set when Strategy is the estimates' verdict
	// (costedStrategy), which a kept plan bound to other values re-derives.
	costed bool
}

// Schema implements Node.
func (j *Join) Schema() *types.Schema {
	if j.schema == nil {
		j.schema = j.L.Schema().Concat(j.R.Schema())
		if j.Kind == JoinLeft {
			// Right side becomes nullable.
			for i := j.L.Schema().Len(); i < j.schema.Len(); i++ {
				j.schema.Columns[i].Nullable = true
			}
		}
	}
	return j.schema
}

// Describe implements Node.
func (j *Join) Describe() string {
	out := "Join " + j.Kind.String()
	if j.Strategy != StrategyAuto {
		out += " strategy=" + j.Strategy.String()
	}
	if j.Cond != nil {
		out += " on " + j.Cond.String()
	}
	return out
}

// AggItem is one aggregate computed by an Aggregate node.
type AggItem struct {
	Kind     expr.AggKind
	Arg      expr.Expr // nil for COUNT(*)
	Distinct bool
	Name     string
}

// Aggregate groups input rows by GroupBy expressions and computes Aggs.
// Output schema: group columns (in order) then aggregate results.
type Aggregate struct {
	GroupBy []expr.Expr
	Aggs    []AggItem
	Input   Node

	schema *types.Schema
}

// Schema implements Node.
func (a *Aggregate) Schema() *types.Schema {
	if a.schema == nil {
		cols := make([]types.Column, 0, len(a.GroupBy)+len(a.Aggs))
		for _, g := range a.GroupBy {
			cols = append(cols, exprColumn(g, "", a.Input))
		}
		for _, ag := range a.Aggs {
			in := types.KindInt
			if ag.Arg != nil {
				in = ag.Arg.ResultType()
			}
			name := ag.Name
			if name == "" {
				name = strings.ToLower(ag.Kind.String())
			}
			cols = append(cols, types.Column{Name: name, Type: expr.AggResultType(ag.Kind, in), Nullable: ag.Kind != expr.AggCount})
		}
		a.schema = &types.Schema{Columns: cols}
	}
	return a.schema
}

// Describe implements Node.
func (a *Aggregate) Describe() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.String())
	}
	var aggs []string
	for _, ag := range a.Aggs {
		arg := "*"
		if ag.Arg != nil {
			arg = ag.Arg.String()
		}
		aggs = append(aggs, ag.Kind.String()+"("+arg+")")
	}
	return "Aggregate group=[" + strings.Join(parts, ", ") + "] aggs=[" + strings.Join(aggs, ", ") + "]"
}

// SortKey is one ORDER BY key bound over the input schema.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// Sort orders input rows.
type Sort struct {
	Keys  []SortKey
	Input Node
	// Top, when positive, is how many rows the Limit above reads
	// (Offset + N): pushTopK sets it, and the executor then keeps that
	// many rows instead of its whole input.
	Top int64
}

// Schema implements Node.
func (s *Sort) Schema() *types.Schema { return s.Input.Schema() }

// Describe implements Node.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.E.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	d := "Sort " + strings.Join(parts, ", ")
	if s.Top > 0 {
		d += " top " + strconv.FormatInt(s.Top, 10)
	}
	return d
}

// Limit truncates input after Offset+N rows, skipping Offset.
type Limit struct {
	N      int64
	Offset int64
	Input  Node
}

// Schema implements Node.
func (l *Limit) Schema() *types.Schema { return l.Input.Schema() }

// Describe implements Node.
func (l *Limit) Describe() string {
	if l.Offset > 0 {
		return "Limit " + strconv.FormatInt(l.N, 10) + " offset " + strconv.FormatInt(l.Offset, 10)
	}
	return "Limit " + strconv.FormatInt(l.N, 10)
}

// Union concatenates the outputs of its inputs (schemas must be
// union-compatible). All=false deduplicates.
type Union struct {
	Inputs []Node
	All    bool
	// Parallel fetches inputs concurrently, else one after another (set
	// by the optimizer for fragment unions; the T4 and F9 ablations turn
	// it off).
	Parallel bool
}

// Schema implements Node.
func (u *Union) Schema() *types.Schema { return u.Inputs[0].Schema() }

// Describe implements Node.
func (u *Union) Describe() string {
	out := "Union"
	if u.All {
		out += " all"
	}
	if u.Parallel {
		out += " parallel"
	}
	return out
}

// Values produces literal rows (SELECT without FROM, VALUES lists).
type Values struct {
	Rows [][]expr.Expr
	Out  *types.Schema
}

// Schema implements Node.
func (v *Values) Schema() *types.Schema { return v.Out }

// Describe implements Node.
func (v *Values) Describe() string { return "Values " + strconv.Itoa(len(v.Rows)) + " row(s)" }

// Explain renders a plan tree as indented text.
func Explain(n Node) string { return ExplainFunc(n, nil) }

// EstimateRows estimates the node's output cardinality.
func EstimateRows(n Node) float64 {
	switch t := n.(type) {
	case *FragScan:
		fs := t.Frag.Stats()
		base := 1000.0
		if fs != nil && fs.RowCount > 0 {
			base = float64(fs.RowCount)
		} else if t.Frag.Info() != nil && t.Frag.Info().RowCount > 0 {
			base = float64(t.Frag.Info().RowCount)
		}
		sel := stats.Selectivity(t.Query.Filter, fs)
		if t.GlobalResidual != nil {
			sel *= stats.DefaultSel
		}
		// What the source is asked to do past the filter is priced as
		// the operator it stands for.
		rows := base * sel
		if t.Query.HasAggregation() {
			rows = aggregateRows(rows, t, t.keys())
		}
		if t.Query.Limit >= 0 {
			rows = limitRows(t.Query.Limit, rows)
		}
		return rows
	case *Filter:
		return EstimateRows(t.Input) * stats.DefaultSel
	case *Project:
		return EstimateRows(t.Input)
	case *Join:
		l, r := EstimateRows(t.L), EstimateRows(t.R)
		sides := [2]flatRel{{node: t.L, rows: l}, {node: t.R, offset: t.L.Schema().Len(), rows: r}}
		return l * r * condSel(t.Cond, sides[:])
	case *Aggregate:
		return aggregateRows(EstimateRows(t.Input), t, len(t.GroupBy))
	case *Sort:
		return EstimateRows(t.Input)
	case *Limit:
		return limitRows(t.N, EstimateRows(t.Input))
	case *Union:
		var sum float64
		for _, c := range t.Inputs {
			sum += EstimateRows(c)
		}
		return sum
	case *Values:
		return float64(len(t.Rows))
	default:
		return 1000
	}
}

// aggregateRows prices grouping n of in rows by k keys: n is an
// Aggregate or an aggregating FragScan, whose first k output columns are
// its keys. That is as many groups as the keys take combinations, the
// product of their ndv, but no more than in; a tenth of in when a key's
// NDV is unknown (not a column, say); one row without keys; at least one.
func aggregateRows(in float64, n Node, k int) float64 {
	groups := 1.0
	for col := range k {
		v := ndv(n, col)
		if v <= 0 {
			return max(in/10, 1)
		}
		groups *= v
	}
	return max(min(in, groups), 1)
}

// limitRows prices a limit of n over in rows.
func limitRows(n int64, in float64) float64 { return min(float64(n), in) }

// condSel prices an inner join's condition over rels, the relations
// whose concatenated columns it is bound over: the product of joinSel
// over its conjuncts, walked in place.
func condSel(e expr.Expr, rels []flatRel) float64 {
	if e == nil {
		return 1
	}
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		return condSel(b.L, rels) * condSel(b.R, rels)
	}
	return joinSel(e, rels)
}

// joinSel prices one conjunct of an inner join's condition, for the row
// estimate and the join-order search alike. An equality of two columns
// keeps 1/max(NDV) of the pairs, a column's NDV being no more than its
// relation's row estimate, and that when unknown; any other conjunct
// keeps DefaultSel.
func joinSel(e expr.Expr, rels []flatRel) float64 {
	l, r, ok := columnEquality(e)
	if !ok {
		return stats.DefaultSel
	}
	return 1 / max(columnNDV(rels, l.Index), columnNDV(rels, r.Index), 1)
}

// columnEquality recognises `column = column`.
func columnEquality(e expr.Expr) (l, r *expr.ColRef, ok bool) {
	b, ok := e.(*expr.Binary)
	if !ok || b.Op != expr.OpEq {
		return nil, nil, false
	}
	l, lok := b.L.(*expr.ColRef)
	r, rok := b.R.(*expr.ColRef)
	return l, r, lok && rok
}

// columnNDV is the NDV of column col of rels' concatenated columns, read
// on the relation under any joins that holds the column: no more than
// that relation's row estimate, and that estimate when unknown. The
// join-order search, whose relations are the leaves of a join chain, and
// EstimateRows, whose are a join's two sides, thus read one number.
func columnNDV(rels []flatRel, col int) float64 {
	r := rels[relOf(rels, col)]
	n, col := underJoins(r.node, col-r.offset)
	rows := r.rows
	if n != r.node {
		rows = EstimateRows(n)
	}
	if v := ndv(n, col); v > 0 && v < rows {
		return v
	}
	return rows
}

// underJoins resolves column col of n to the relation under any joins
// that holds it, and its position there.
func underJoins(n Node, col int) (Node, int) {
	for j, ok := n.(*Join); ok; j, ok = n.(*Join) {
		if lw := j.L.Schema().Len(); col >= lw {
			n, col = j.R, col-lw
		} else {
			n = j.L
		}
	}
	return n, col
}

// ndv is the number of distinct values column col of n's output takes,
// read on the statistics of the scans it comes from; 0 when unknown. It
// is not capped at n's rows: its readers cap it.
func ndv(n Node, col int) float64 {
	switch t := n.(type) {
	case *FragScan:
		// An aggregating scan whose source's rows come as they are has
		// group key i, remote column GroupBy[i], as output column i
		// (past them, aggregates); any other column is translated from
		// its remote column, and a constant-mapped column has the one
		// value.
		if t.Query.HasAggregation() && t.Pos == nil {
			if col >= len(t.Query.GroupBy) {
				return 0
			}
			return statsNDV(t.Frag.Stats(), t.Query.GroupBy[col])
		}
		switch m := t.mapping(col); {
		case m == nil:
			return 0
		case m.Const != nil:
			return 1
		default:
			return statsNDV(t.Frag.Stats(), m.RemoteCol)
		}
	case *Union:
		// Fragments of one table: their distinct values may overlap, so
		// they combine by stats.MergeNDV — unless every input maps the
		// column to a constant, when they are the constants — and an
		// INT column takes no more values than its span holds.
		if k := distinctConsts(t.Inputs, col); k > 0 {
			return k
		}
		var v int64
		for _, in := range t.Inputs {
			v = stats.MergeNDV(v, int64(ndv(in, col)))
		}
		if span, ok := intSpan(t.Inputs, col); ok {
			return min(float64(v), span)
		}
		return float64(v)
	case *Join:
		return ndv(underJoins(t, col))
	case *Filter:
		return ndv(t.Input, col)
	case *Sort:
		return ndv(t.Input, col)
	case *Limit:
		return ndv(t.Input, col)
	case *Project:
		if c, ok := t.Exprs[col].(*expr.ColRef); ok {
			return ndv(t.Input, c.Index)
		}
	case *Aggregate:
		if col < len(t.GroupBy) {
			if c, ok := t.GroupBy[col].(*expr.ColRef); ok {
				return ndv(t.Input, c.Index)
			}
		}
	default:
		// Values: no statistics.
	}
	return 0
}

// intSpan is how many INT values lie between the least and the greatest
// value of column col in the fragment scans ins, as their statistics
// have them: an upper bound on the column's NDV over their union. false
// unless each of them is a scan that does not aggregate, maps the column
// as a plain copy and knows its INT Min and Max.
func intSpan(ins []Node, col int) (float64, bool) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, in := range ins {
		fs, ok := in.(*FragScan)
		if !ok || fs.Query.HasAggregation() {
			return 0, false
		}
		m, ts := fs.mapping(col), fs.Frag.Stats()
		if m == nil || !m.Identity() || ts == nil || m.RemoteCol >= len(ts.Columns) {
			return 0, false
		}
		cs := ts.Columns[m.RemoteCol]
		if cs.Min.Kind() != types.KindInt || cs.Max.Kind() != types.KindInt {
			return 0, false
		}
		lo, hi = min(lo, cs.Min.Int()), max(hi, cs.Max.Int())
	}
	return float64(hi) - float64(lo) + 1, true
}

// statsNDV is column col's NDV in ts; 0 when unknown.
func statsNDV(ts *stats.TableStats, col int) float64 {
	if ts == nil || col < 0 || col >= len(ts.Columns) {
		return 0
	}
	return float64(ts.Columns[col].NDV)
}

// distinctConsts is the number of distinct constants the fragment scans
// ins map column col to; 0 unless each of them maps it to one.
func distinctConsts(ins []Node, col int) float64 {
	var k float64
	for i, in := range ins {
		c := fragConst(in, col)
		if c == nil {
			return 0
		}
		if !slices.ContainsFunc(ins[:i], func(p Node) bool { return fragConst(p, col).Equal(*c) }) {
			k++
		}
	}
	return k
}

// fragConst is the constant fragment scan n maps column col to; nil when
// it maps none or n is no fragment scan.
func fragConst(n Node, col int) *types.Value {
	if fs, ok := n.(*FragScan); ok && fs.mapping(col) != nil {
		return fs.mapping(col).Const
	}
	return nil
}

// ExplainFunc renders the plan with a per-node annotation (used by
// EXPLAIN ANALYZE to attach measured rows/time).
func ExplainFunc(n Node, annotate func(Node) string) string {
	var b strings.Builder
	var walk func(Node, int)
	walk = func(n Node, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		b.WriteString(n.Describe())
		if annotate != nil {
			b.WriteString(annotate(n))
		}
		b.WriteByte('\n')
		EachInput(n, func(in *Node) { walk(*in, depth+1) })
	}
	walk(n, 0)
	return b.String()
}
