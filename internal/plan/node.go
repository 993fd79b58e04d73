// Package plan implements the mediator's query planner: logical plan
// construction from the SQL AST, rewrite rules (constant folding,
// predicate pushdown, projection pruning), cost-based join ordering,
// distributed join strategy selection (ship-all / semijoin),
// and capability-based decomposition of global table scans into
// per-fragment remote queries with mediator-side compensation.
package plan

import (
	"slices"
	"strconv"
	"strings"

	"gis/internal/catalog"
	"gis/internal/expr"
	"gis/internal/stats"
	"gis/internal/types"
)

// Node is a logical (and, after decomposition, physical) plan operator.
type Node interface {
	// Schema describes the rows the node produces.
	Schema() *types.Schema
	// Children returns input operators.
	Children() []Node
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
}

// NewGlobalScan builds a scan of every column of table.
func NewGlobalScan(t *catalog.GlobalTable, alias string) *GlobalScan {
	return &GlobalScan{Table: t, Alias: alias}
}

// Schema implements Node.
func (s *GlobalScan) Schema() *types.Schema {
	if s.schema == nil {
		base := s.Table.Schema.Columns
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

// Children implements Node.
func (s *GlobalScan) Children() []Node { return nil }

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

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

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
			name := p.Names[i]
			table := ""
			if c, ok := e.(*expr.ColRef); ok {
				if name == "" {
					name = c.Name
				}
				table = c.Table
				if table == "" && c.Index >= 0 && c.Index < p.Input.Schema().Len() {
					table = p.Input.Schema().Columns[c.Index].Table
				}
			}
			if name == "" {
				name = e.String()
			}
			cols[i] = types.Column{Table: table, Name: name, Type: e.ResultType(), Nullable: true}
		}
		p.schema = &types.Schema{Columns: cols}
	}
	return p.schema
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

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

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

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
			name := g.String()
			table := ""
			if c, ok := g.(*expr.ColRef); ok {
				name = c.Name
				table = c.Table
				if table == "" && c.Index >= 0 && c.Index < a.Input.Schema().Len() {
					table = a.Input.Schema().Columns[c.Index].Table
				}
			}
			cols = append(cols, types.Column{Table: table, Name: name, Type: g.ResultType(), Nullable: true})
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

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

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

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Input} }

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

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

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

// Children implements Node.
func (u *Union) Children() []Node { return u.Inputs }

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

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// Describe implements Node.
func (v *Values) Describe() string { return "Values " + strconv.Itoa(len(v.Rows)) + " row(s)" }

// Explain renders a plan tree as indented text.
func Explain(n Node) string { return ExplainFunc(n, nil) }

// EstimateRows estimates the node's output cardinality.
func EstimateRows(n Node) float64 {
	switch t := n.(type) {
	case *GlobalScan:
		ts := t.Table.Stats()
		base := 1000.0
		if ts != nil && ts.RowCount > 0 {
			base = float64(ts.RowCount)
		}
		return base * stats.Selectivity(t.Filter, ts)
	case *FragScan:
		fs := t.Frag.Stats()
		base := 1000.0
		if fs != nil && fs.RowCount > 0 {
			base = float64(fs.RowCount)
		} else if t.Frag.Info() != nil && t.Frag.Info().RowCount > 0 {
			base = float64(t.Frag.Info().RowCount)
		}
		sel := 1.0
		if t.Query.Filter != nil {
			sel *= stats.Selectivity(t.Query.Filter, fs)
		}
		if t.GlobalResidual != nil {
			sel *= stats.DefaultSel
		}
		return base * sel
	case *Filter:
		return EstimateRows(t.Input) * stats.DefaultSel
	case *Project:
		return EstimateRows(t.Input)
	case *Join:
		l, r := EstimateRows(t.L), EstimateRows(t.R)
		switch {
		case t.Cond == nil:
			return l * r
		case len(t.EquiL) > 0:
			// Equi-join: containment estimate via child stats when
			// available, else sqrt damping.
			return joinCardinality(t, l, r)
		default:
			return l * r * stats.DefaultSel
		}
	case *Aggregate:
		in := EstimateRows(t.Input)
		if len(t.GroupBy) == 0 {
			return 1
		}
		g := in / 10
		if g < 1 {
			g = 1
		}
		return g
	case *Sort:
		return EstimateRows(t.Input)
	case *Limit:
		in := EstimateRows(t.Input)
		if float64(t.N) < in {
			return float64(t.N)
		}
		return in
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

func joinCardinality(j *Join, l, r float64) float64 {
	lNDV := childColumnNDV(j.L, j.EquiL[0])
	rNDV := childColumnNDV(j.R, j.EquiR[0])
	ndv := lNDV
	if rNDV > ndv {
		ndv = rNDV
	}
	if ndv < 1 {
		// Unknown: assume keys on the larger side.
		ndv = l
		if r > l {
			ndv = r
		}
		if ndv < 1 {
			ndv = 1
		}
	}
	return l * r / ndv
}

// childColumnNDV digs the NDV of a column out of scan statistics; 0 when
// unknown.
func childColumnNDV(n Node, col int) float64 {
	switch t := n.(type) {
	case *GlobalScan:
		ts := t.Table.Stats()
		actual := col
		if t.Cols != nil {
			if col >= len(t.Cols) {
				return 0
			}
			actual = t.Cols[col]
		}
		if ts != nil && actual < len(ts.Columns) && ts.Columns[actual].NDV > 0 {
			return float64(ts.Columns[actual].NDV)
		}
	case *FragScan:
		// Output col → remote col → remote-space fragment statistics.
		m := t.mapping(col)
		fs := t.Frag.Stats()
		if m != nil && m.RemoteCol >= 0 && fs != nil && m.RemoteCol < len(fs.Columns) && fs.Columns[m.RemoteCol].NDV > 0 {
			return float64(fs.Columns[m.RemoteCol].NDV)
		}
	case *Union:
		// Fragments of one table: distinct values may overlap; the max
		// is a safe lower bound.
		var best float64
		for _, in := range t.Inputs {
			if v := childColumnNDV(in, col); v > best {
				best = v
			}
		}
		return best
	case *Filter:
		return childColumnNDV(t.Input, col)
	case *Project:
		if col < len(t.Exprs) {
			if c, ok := t.Exprs[col].(*expr.ColRef); ok {
				return childColumnNDV(t.Input, c.Index)
			}
		}
	default:
		// Joins, aggregates, sorts, ...: no per-column NDV to report.
	}
	return 0
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
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
