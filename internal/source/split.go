package source

import (
	"slices"

	"gis/internal/expr"
)

// Residual is the work the mediator does itself because the source's
// capabilities could not cover the desired filter and projection. It
// applies, in order, to the rows the pushed query returns: filter, then
// project. The zero value is no work.
type Residual struct {
	// Filter is a predicate over the pushed query's output schema; nil
	// when fully pushed.
	Filter expr.Expr
	// Project lists output columns of the pushed query to keep (in
	// order); nil when no residual projection is needed.
	Project []int
}

// Empty reports whether no compensation is needed.
func (r Residual) Empty() bool { return r.Filter == nil && r.Project == nil }

// CanCompare is the one statement of what each FilterCap level accepts:
// it reports whether the source evaluates a predicate over the table
// itself. col >= 0 says the predicate compares that column with
// constants (=, <, <=, >, >= or an IN list); col < 0 that it has any
// other shape. Split asks it of every conjunct through CanFilter; the
// join strategy chooser asks it directly about the key predicate a
// semijoin will ship but has not built.
func (c Capabilities) CanCompare(info *TableInfo, col int) bool {
	switch c.Filter {
	case FilterFull:
		return true
	case FilterKey:
		return col >= 0 && slices.Contains(info.KeyColumns, col)
	default:
		return false
	}
}

// CanFilter reports whether the source evaluates conjunct conj itself.
// No source is shipped a subquery (the planner removes them before
// decomposition anyway — defensive).
func (c Capabilities) CanFilter(info *TableInfo, conj expr.Expr) bool {
	col, ok := constComparison(conj)
	if !ok {
		col = -1
	}
	return c.CanCompare(info, col) && (ok || !expr.HasSubquery(conj))
}

// constComparison recognises a comparison between a column and a
// constant, or a column IN a list of constants, and returns the column.
func constComparison(conj expr.Expr) (int, bool) {
	switch n := conj.(type) {
	case *expr.Binary:
		col, op, _, ok := expr.ColumnComparison(n)
		if !ok || op == expr.OpNe {
			return 0, false
		}
		return col.Index, true
	case *expr.InList:
		col, cok := n.E.(*expr.ColRef)
		if !cok || n.Negate {
			return 0, false
		}
		for _, e := range n.List {
			if _, isConst := e.(*expr.Const); !isConst {
				return 0, false
			}
		}
		return col.Index, true
	default:
		return 0, false
	}
}

// Split decomposes a desired filter and projection of a table into the
// query the source can execute (per its capabilities) and the residual
// the mediator must evaluate on the returned rows. info describes the
// table. columns nil means every column.
//
// Split guarantees: running the pushed query at the source and then
// applying the residual at the mediator is equivalent to filtering and
// projecting the table as desired. Aggregation, ordering and limits are
// negotiated afterwards, by the planner, on the scan Split's answer
// becomes.
func Split(table string, columns []int, filter expr.Expr, caps Capabilities, info *TableInfo) (*Query, Residual) {
	pushed := &Query{Table: table, Limit: -1}
	var res Residual

	// A source that filters nothing is not asked conjunct by conjunct.
	var pushable, keep []expr.Expr
	if caps.Filter != FilterNone {
		for _, c := range expr.Conjuncts(filter) {
			if caps.CanFilter(info, c) {
				pushable = append(pushable, c)
			} else {
				keep = append(keep, c)
			}
		}
	}
	switch {
	case pushable == nil:
		res.Filter = filter
	case keep == nil:
		pushed.Filter = filter
	default:
		pushed.Filter, res.Filter = expr.Conjoin(pushable), expr.Conjoin(keep)
	}

	switch {
	case columns == nil:
		// Full rows desired; nothing to project.
	case !caps.Project:
		// Full rows come back; the mediator projects.
		res.Project = columns
	case res.Filter == nil:
		pushed.Columns = columns
	default:
		// Ship the desired columns and the ones the residual filter
		// reads, in table order, then filter and cut down at the mediator.
		var pos []int
		pushed.Columns, pos = expr.ColumnLayout(info.Schema.Len(), columns, res.Filter)
		res.Filter = expr.Remap(res.Filter, pos)
		res.Project = make([]int, len(columns))
		for i, c := range columns {
			res.Project[i] = pos[c]
		}
	}
	return pushed, res
}
