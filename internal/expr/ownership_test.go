package expr_test

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/sql"
	"gis/internal/types"
	"gis/internal/workload"
)

// TestParsedTreesAreOwned checks what binding in place rests on, over
// every statement TestPlanEquivalence draws and FuzzParse's seed corpus:
// no node of the parser's output is reachable from two of a statement's
// expressions — its select items, WHERE, GROUP BY keys, HAVING, ORDER BY
// keys, each ON, an INSERT's values, an UPDATE's SET values, and those of
// every statement nested in it; BETWEEN's operand, shared within one
// expression, is allowed — and binding each expression in place gives the
// tree the copying oracle gives, node for node. The columns an expression
// names are bound against a schema made of them, typed by name.
func TestParsedTreesAreOwned(t *testing.T) {
	n := 1200
	if testing.Short() {
		n = 150
	}
	var texts []string
	for _, s := range workload.EquivalenceStatements(n) {
		texts = append(texts, strings.ReplaceAll(s, "$T", "orders_rel"))
	}
	texts = append(texts, parseSeeds(t)...)
	parsed := 0
	for _, text := range texts {
		stmt, err := sql.Parse(text)
		if err != nil {
			continue
		}
		parsed++
		var roots []expr.Expr
		eachExpr(stmt, func(e expr.Expr) { roots = append(roots, e) })
		owner := map[expr.Expr]int{}
		for i, r := range roots {
			expr.Walk(r, func(n expr.Expr) bool {
				if o, seen := owner[n]; seen && o != i {
					t.Errorf("%s: %s is reachable from %s and from %s", text, n, roots[o], r)
				}
				owner[n] = i
				return true
			})
		}
		schema := schemaOf(roots)
		for _, r := range roots {
			want, werr := expr.BindCopy(r, schema)
			got, gerr := expr.Bind(r, schema)
			switch {
			case (gerr == nil) != (werr == nil):
				t.Errorf("%s: binding %s in place: %v; a copy: %v", text, r, gerr, werr)
			case gerr != nil:
			case got != r:
				t.Errorf("%s: Bind(%s) returned another tree", text, r)
			default:
				if d := expr.SameBound(got, want); d != "" {
					t.Errorf("%s: %s bound in place %s", text, r, d)
				}
			}
		}
	}
	if parsed < n {
		t.Errorf("%d statements parsed, want at least the generator's %d", parsed, n)
	}
}

// eachExpr calls fn with every expression of stmt and of each statement
// nested in it (UNION arms, derived tables, subqueries, EXPLAIN's).
func eachExpr(stmt sql.Statement, fn func(expr.Expr)) {
	root := func(e expr.Expr) {
		if e == nil {
			return
		}
		fn(e)
		expr.Walk(e, func(n expr.Expr) bool {
			if sq, ok := n.(*expr.Subquery); ok {
				eachExpr(sq.Stmt.(sql.Statement), fn)
			}
			return true
		})
	}
	var from func(sql.TableExpr)
	from = func(te sql.TableExpr) {
		switch f := te.(type) {
		case *sql.SubqueryTable:
			eachExpr(f.Select, fn)
		case *sql.JoinExpr:
			from(f.L)
			from(f.R)
			root(f.On)
		}
	}
	switch s := stmt.(type) {
	case *sql.SelectStmt:
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
	case *sql.InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				root(e)
			}
		}
	case *sql.UpdateStmt:
		for _, a := range s.Set {
			root(a.Value)
		}
		root(s.Where)
	case *sql.DeleteStmt:
		root(s.Where)
	case *sql.ExplainStmt:
		eachExpr(s.Stmt, fn)
	}
}

// schemaOf lays out one column per distinct (qualifier, name) the
// expressions reference, typed by the name as the generator's fixtures
// type it (INT otherwise).
func schemaOf(roots []expr.Expr) *types.Schema {
	kinds := map[string]types.Kind{
		"amount": types.KindFloat, "cents": types.KindFloat, "dbl": types.KindFloat,
		"region": types.KindString, "rg": types.KindString, "name": types.KindString,
		"segment": types.KindString, "site": types.KindString,
	}
	s := &types.Schema{}
	seen := map[string]bool{}
	for _, r := range roots {
		expr.Walk(r, func(n expr.Expr) bool {
			if c, ok := n.(*expr.ColRef); ok {
				key := strings.ToLower(c.Table + "." + c.Name)
				if !seen[key] {
					seen[key] = true
					k, ok := kinds[strings.ToLower(c.Name)]
					if !ok {
						k = types.KindInt
					}
					s.Columns = append(s.Columns, types.Column{Table: c.Table, Name: c.Name, Type: k})
				}
			}
			return true
		})
	}
	return s
}

// parseSeeds reads FuzzParse's seed corpus.
func parseSeeds(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../sql/testdata/parse_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := strconv.Unquote(line)
		if err != nil {
			t.Fatalf("parse_seeds.txt: %q: %v", line, err)
		}
		out = append(out, s)
	}
	return out
}
