package source

import (
	"slices"

	"gis/internal/expr"
)

// CanCompare is the one statement of what each FilterCap level accepts:
// it reports whether the source evaluates a predicate over the table
// itself. col >= 0 says the predicate compares that column with
// constants (=, <, <=, >, >= or an IN list); col < 0 that it has any
// other shape. The planner asks it of every translated conjunct through
// CanFilter when it builds a fragment scan; the join strategy chooser
// asks it directly about the key predicate a semijoin will ship but has
// not built.
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
