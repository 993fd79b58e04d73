package plan

import (
	"reflect"
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
