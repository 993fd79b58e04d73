package sql

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"gis/internal/expr"
)

// FuzzParse feeds arbitrary text to the lexer and parser. Whatever the
// text: a statement or a clean error, never a panic; a statement's
// printed form is a fixed point — it parses, to a statement that prints
// the same (the printed form is what a view stores, what EXPLAIN shows
// and what the query log fingerprints); and no node of the statement is
// reachable from two of its expressions, which Bind, binding each in
// place against its own schema, relies on. The seed corpus is
// testdata/parse_seeds.txt.
func FuzzParse(f *testing.F) {
	data, err := os.ReadFile("testdata/parse_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			f.Fatalf("parse_seeds.txt: %q: %v", line, err)
		}
		f.Add(s)
	}
	f.Add("SELECT " + strings.Repeat("(", 2*maxDepth) + "1")
	f.Add("SELECT " + strings.Repeat("NOT ", maxDepth/2) + "a")
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := Parse(text)
		if err != nil {
			return
		}
		printed := stmt.String()
		again, err := Parse(printed)
		if err != nil && strings.Contains(err.Error(), "nests deeper") {
			// The printed form parenthesizes every operator, so a tree
			// close to maxDepth prints deeper than the parser reads.
			return
		}
		if err != nil {
			t.Fatalf("%q parses, but its printed form %q does not: %v", text, printed, err)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("%q prints as %q, which prints as %q", text, printed, reprinted)
		}
		owner, i := map[expr.Expr]int{}, 0
		eachExpr(stmt, func(e expr.Expr) {
			i++
			expr.Walk(e, func(n expr.Expr) bool {
				if o, seen := owner[n]; seen && o != i {
					t.Fatalf("%q: %s is reachable from two of the statement's expressions", text, n)
				}
				owner[n] = i
				return true
			})
		})
	})
}

// eachExpr calls fn with every expression of stmt — select items, WHERE,
// GROUP BY keys, HAVING, ORDER BY keys, each ON, INSERT and SET values —
// and of each statement nested in it.
func eachExpr(stmt Statement, fn func(expr.Expr)) {
	root := func(e expr.Expr) {
		if e == nil {
			return
		}
		fn(e)
		expr.Walk(e, func(n expr.Expr) bool {
			if sq, ok := n.(*expr.Subquery); ok {
				eachExpr(sq.Stmt.(Statement), fn)
			}
			return true
		})
	}
	var from func(TableExpr)
	from = func(te TableExpr) {
		switch f := te.(type) {
		case *SubqueryTable:
			eachExpr(f.Select, fn)
		case *JoinExpr:
			from(f.L)
			from(f.R)
			root(f.On)
		}
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		for sel := s; sel != nil; sel = sel.Union {
			for _, it := range sel.Items {
				root(it.Expr)
			}
			from(sel.From)
			root(sel.Where)
			for _, g := range sel.GroupBy {
				root(g)
			}
			root(sel.Having)
			for _, o := range sel.OrderBy {
				root(o.Expr)
			}
		}
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				root(e)
			}
		}
	case *UpdateStmt:
		for _, a := range s.Set {
			root(a.Value)
		}
		root(s.Where)
	case *DeleteStmt:
		root(s.Where)
	case *ExplainStmt:
		eachExpr(s.Stmt, fn)
	}
}
