package expr

import (
	"fmt"

	"gis/internal/types"
)

// SubqueryMode distinguishes the three subquery positions the dialect
// supports.
type SubqueryMode uint8

// Subquery modes.
const (
	// SubExists is EXISTS (SELECT ...).
	SubExists SubqueryMode = iota
	// SubIn is operand [NOT] IN (SELECT ...).
	SubIn
	// SubScalar is a parenthesized single-value subquery.
	SubScalar
)

// Subquery is a subquery appearing in an expression. The contained
// statement is opaque to this package (it is an *sql.SelectStmt); the
// planner decorrelates or pre-evaluates subqueries before execution, so a
// Subquery reaching Eval is a planning bug.
type Subquery struct {
	// Stmt is the parsed SELECT statement (*sql.SelectStmt).
	Stmt any
	// Mode says how the subquery is used.
	Mode SubqueryMode
	// Operand is the left operand of IN; nil otherwise.
	Operand Expr
	// Negate marks NOT IN / NOT EXISTS.
	Negate bool
	// Type is the result kind: BOOL for EXISTS/IN, set by the planner
	// for scalar subqueries.
	Type types.Kind
}

// ResultType implements Expr.
func (s *Subquery) ResultType() types.Kind {
	if s.Mode == SubScalar {
		return s.Type
	}
	return types.KindBool
}

// Eval implements Expr; subqueries must be planned away first.
func (s *Subquery) Eval(types.Row) (types.Value, error) {
	return types.Null, fmt.Errorf("subquery evaluated without planning: %s", s)
}

// String implements Expr, rendering the inner statement when it knows
// how to print itself (sql.SelectStmt does), so EXPLAIN output and AST
// round-trips stay faithful.
func (s *Subquery) String() string {
	body := "<subquery>"
	if str, ok := s.Stmt.(fmt.Stringer); ok {
		body = str.String()
	}
	switch s.Mode {
	case SubExists:
		if s.Negate {
			return "NOT EXISTS (" + body + ")"
		}
		return "EXISTS (" + body + ")"
	case SubIn:
		op := "IN"
		if s.Negate {
			op = "NOT IN"
		}
		return "(" + s.Operand.String() + " " + op + " (" + body + "))"
	default:
		return "(" + body + ")"
	}
}

// HasSubquery reports whether the tree contains a Subquery node.
func HasSubquery(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if _, ok := n.(*Subquery); ok {
			found = true
			return false
		}
		return true
	})
	return found
}
