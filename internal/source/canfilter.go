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

// CanFilter reports whether the source evaluates conjunct conj itself:
// a constraint of a column to constants (expr.ColumnConstraint, the
// recogniser a kvstore reads its key range with) is asked of CanCompare
// for its column, any other shape for none. No source is shipped a
// subquery (the planner removes them before decomposition anyway —
// defensive).
func (c Capabilities) CanFilter(info *TableInfo, conj expr.Expr) bool {
	col := -1
	if ref, ok := expr.ColumnConstraint(conj); ok {
		col = ref.Index
	}
	return c.CanCompare(info, col) && (col >= 0 || !expr.HasSubquery(conj))
}
