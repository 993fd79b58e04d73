package sql

import (
	"fmt"
	"strconv"
	"strings"

	"gis/internal/expr"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	String() string
}

// SelectItem is one element of a SELECT list.
type SelectItem struct {
	// Star marks "*" or "t.*"; StarTable carries the qualifier.
	Star      bool
	StarTable string
	// Expr and Alias describe an ordinary projection item.
	Expr  expr.Expr
	Alias string
}

func (s SelectItem) String() string {
	if s.Star {
		if s.StarTable != "" {
			return expr.QuoteIdent(s.StarTable) + ".*"
		}
		return "*"
	}
	if s.Alias != "" {
		return fmt.Sprintf("%s AS %s", s.Expr, expr.QuoteIdent(s.Alias))
	}
	return s.Expr.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr expr.Expr
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// JoinKind enumerates join types in FROM.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
	JoinCross
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return fmt.Sprintf("JoinKind(%d)", uint8(k))
	}
}

// TableExpr is a FROM-clause item.
type TableExpr interface {
	tableExpr()
	String() string
}

// TableRef names a base (global) table, optionally aliased.
type TableRef struct {
	Name  string
	Alias string
}

func (*TableRef) tableExpr() {}

func (t *TableRef) String() string {
	if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
		return expr.QuoteIdent(t.Name) + " AS " + expr.QuoteIdent(t.Alias)
	}
	return expr.QuoteIdent(t.Name)
}

// Binding returns the name this table is referenced by in expressions.
func (t *TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// SubqueryTable is a derived table: (SELECT ...) AS alias.
type SubqueryTable struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryTable) tableExpr() {}

func (s *SubqueryTable) String() string {
	return "(" + s.Select.String() + ") AS " + expr.QuoteIdent(s.Alias)
}

// JoinExpr combines two FROM items.
type JoinExpr struct {
	Kind JoinKind
	L, R TableExpr
	On   expr.Expr // nil for CROSS
}

func (*JoinExpr) tableExpr() {}

func (j *JoinExpr) String() string {
	s := fmt.Sprintf("%s %s %s", j.L, j.Kind, j.R)
	if j.On != nil {
		s += " ON " + j.On.String()
	}
	return s
}

// SelectStmt is a SELECT, possibly the head of a UNION chain.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableExpr // nil: SELECT <exprs> with no FROM
	Where    expr.Expr
	GroupBy  []expr.Expr
	Having   expr.Expr
	OrderBy  []OrderItem
	// Limit and Offset are -1 when absent.
	Limit  int64
	Offset int64
	// Union chains another SELECT after this one; UnionAll keeps
	// duplicates.
	Union    *SelectStmt
	UnionAll bool
}

func (*SelectStmt) stmt() {}

func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	if s.From != nil {
		b.WriteString(" FROM ")
		b.WriteString(s.From.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(s.Having.String())
	}
	if s.Union != nil {
		if s.UnionAll {
			b.WriteString(" UNION ALL ")
		} else {
			b.WriteString(" UNION ")
		}
		b.WriteString(s.Union.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.FormatInt(s.Limit, 10))
	}
	if s.Offset > 0 {
		b.WriteString(" OFFSET ")
		b.WriteString(strconv.FormatInt(s.Offset, 10))
	}
	return b.String()
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]expr.Expr
}

func (*InsertStmt) stmt() {}

func (s *InsertStmt) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s", expr.QuoteIdent(s.Table))
	if len(s.Columns) > 0 {
		cols := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = expr.QuoteIdent(c)
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(cols, ", "))
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		parts := make([]string, len(row))
		for j, e := range row {
			parts[j] = e.String()
		}
		fmt.Fprintf(&b, "(%s)", strings.Join(parts, ", "))
	}
	return b.String()
}

// Assignment is one SET col = expr clause.
type Assignment struct {
	Column string
	Value  expr.Expr
}

// UpdateStmt is UPDATE t SET ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where expr.Expr
}

func (*UpdateStmt) stmt() {}

func (s *UpdateStmt) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "UPDATE %s SET ", expr.QuoteIdent(s.Table))
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", expr.QuoteIdent(a.Column), a.Value)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	return b.String()
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where expr.Expr
}

func (*DeleteStmt) stmt() {}

func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + expr.QuoteIdent(s.Table)
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// ExplainStmt wraps a statement whose plan should be shown. Analyze
// additionally executes it and reports per-operator measurements.
type ExplainStmt struct {
	Stmt    Statement
	Analyze bool
}

func (*ExplainStmt) stmt() {}

func (s *ExplainStmt) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Stmt.String()
	}
	return "EXPLAIN " + s.Stmt.String()
}
