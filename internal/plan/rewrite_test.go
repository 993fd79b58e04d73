package plan

import (
	"reflect"
	"strings"
	"testing"

	"gis/internal/expr"
	"gis/internal/types"
)

// notInputExprs are the expression fields eachExpr leaves out: none is
// bound over a node's inputs.
var notInputExprs = map[string]bool{
	"GlobalScan.Filter":       true, // bound over the table's columns
	"FragScan.GlobalResidual": true, // bound over the columns it fetches
	"Values.Rows":             true, // no input to read
}

// TestEachSlotIsVisitedOnce holds EachInput and eachExpr, which every
// pass walks a plan through, to the fields of each node kind: for one
// node of each, found by reflection, every field of type Node or
// expr.Expr — in a slice, or in a slice of structs such as Sort's keys
// and Aggregate's items — is an input or an expression slot, and each
// walk visits each of its slots exactly once, in field order.
func TestEachSlotIsVisitedOnce(t *testing.T) {
	in := func() Node { return &Values{} }
	e := func() expr.Expr { return expr.NewConst(types.NewInt(1)) }
	for _, n := range []Node{
		&GlobalScan{Filter: e()},
		&FragScan{GlobalResidual: e()},
		&Values{Rows: [][]expr.Expr{{e()}}},
		&Filter{Pred: e(), Input: in()},
		&Project{Exprs: []expr.Expr{e(), e()}, Names: []string{"", ""}, Input: in()},
		&Join{Cond: e(), L: in(), R: in()},
		&Aggregate{GroupBy: []expr.Expr{e(), e()}, Aggs: []AggItem{{Arg: e()}, {Arg: e()}}, Input: in()},
		&Sort{Keys: []SortKey{{E: e()}, {E: e(), Desc: true}}, Input: in()},
		&Limit{N: 1, Input: in()},
		&Union{Inputs: []Node{in(), in(), in()}},
	} {
		kind := reflect.TypeOf(n).Elem().Name()
		var wantIn []*Node
		var wantExpr []*expr.Expr
		slots(reflect.ValueOf(n).Elem(), kind, &wantIn, &wantExpr)
		var gotIn []*Node
		var gotExpr []*expr.Expr
		EachInput(n, func(p *Node) { gotIn = append(gotIn, p) })
		eachExpr(n, func(p *expr.Expr) { gotExpr = append(gotExpr, p) })
		if !reflect.DeepEqual(gotIn, wantIn) {
			t.Errorf("%s: EachInput visits %d slots %p, want %d %p", kind, len(gotIn), gotIn, len(wantIn), wantIn)
		}
		if !reflect.DeepEqual(gotExpr, wantExpr) {
			t.Errorf("%s: eachExpr visits %d slots %p, want %d %p", kind, len(gotExpr), gotExpr, len(wantExpr), wantExpr)
		}
	}
}

// slots appends the address of each Node and expr.Expr field of v, a
// node struct or an element of one of its slices, in field order.
func slots(v reflect.Value, kind string, ins *[]*Node, exprs *[]*expr.Expr) {
	nodeT, exprT := reflect.TypeFor[Node](), reflect.TypeFor[expr.Expr]()
	for i := range v.NumField() {
		f, name := v.Field(i), kind+"."+v.Type().Field(i).Name
		if !v.Type().Field(i).IsExported() || notInputExprs[name] {
			continue
		}
		elems := []reflect.Value{f}
		if f.Kind() == reflect.Slice {
			elems = elems[:0]
			for j := range f.Len() {
				elems = append(elems, f.Index(j))
			}
		}
		for _, el := range elems {
			switch {
			case el.Type() == nodeT:
				*ins = append(*ins, el.Addr().Interface().(*Node))
			case el.Type() == exprT:
				*exprs = append(*exprs, el.Addr().Interface().(*expr.Expr))
			case el.Kind() == reflect.Struct && f.Kind() == reflect.Slice:
				slots(el, kind, ins, exprs)
			}
		}
	}
}

// TestComposeProjects: a Project over a Project is one node after
// optimization, named and typed as the outer one was, unless that would
// compute an inner column twice a row; composing Projects of bare
// columns allocates nothing.
func TestComposeProjects(t *testing.T) {
	cat := newBenchCatalog(t)
	for _, c := range []struct {
		sql  string
		want string // the plan's Projects, top-down
	}{
		{"SELECT q.id, q.amount FROM (SELECT oid AS id, amount FROM orders) q", "Project oid, amount\n"},
		{"SELECT x + 1 FROM (SELECT oid * 2 AS x FROM orders) q", "Project ((oid * 2) + 1)\n"},
		// x is read twice: composing would compute oid * 2 twice a row.
		{"SELECT x, x + 1 FROM (SELECT oid * 2 AS x FROM orders) q", "Project x, (x + 1)\n  Project (oid * 2)\n"},
	} {
		n, err := planOnce(cat, c.sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var got strings.Builder
		for _, line := range strings.SplitAfter(Explain(n), "\n") {
			if strings.HasPrefix(strings.TrimLeft(line, " "), "Project ") {
				got.WriteString(line)
			}
		}
		if got.String() != c.want {
			t.Errorf("%s plans\n%swant\n%s", c.sql, Explain(n), c.want)
		}
	}

	n, err := planOnce(cat, "SELECT q.id AS k, q.amount FROM (SELECT oid AS id, amount FROM orders) q", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Schema().String(); got != "(q.k INT, q.amount FLOAT)" {
		t.Errorf("composed schema %s", got)
	}

	// Composed before anything asked its schema, a Project still names
	// its columns as it did over the inner one.
	in := &Values{Out: types.NewSchema(types.Column{Name: "a", Type: types.KindInt}, types.Column{Name: "b", Type: types.KindInt})}
	a, b := expr.NewBoundColRef(0, types.KindInt, "a"), expr.NewBoundColRef(1, types.KindInt, "b")
	inner := &Project{Exprs: []expr.Expr{b, expr.NewBinary(expr.OpAdd, a, b)}, Names: []string{"b", "s"}, Input: in}
	over := func() *Project {
		return &Project{Exprs: []expr.Expr{expr.NewBoundColRef(1, types.KindInt, "s"), expr.NewBoundColRef(0, types.KindInt, "b")}, Names: []string{"", ""}, Input: inner}
	}
	want, outer := over().Schema().String(), over()
	if composeProject(outer); outer.Schema().String() != want {
		t.Errorf("composed schema %s, want %s", outer.Schema(), want)
	}
	refs := []expr.Expr{over().Exprs[0], over().Exprs[1]}
	allocs := testing.AllocsPerRun(50, func() {
		copy(outer.Exprs, refs)
		outer.Input = inner
		composeProject(outer)
	})
	if allocs != 0 || outer.Input != in || outer.Exprs[0] != inner.Exprs[1] || outer.Exprs[1] != inner.Exprs[0] {
		t.Errorf("composing bare columns: %v allocations, %s", allocs, Explain(outer))
	}
}
