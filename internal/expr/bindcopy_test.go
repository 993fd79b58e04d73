package expr

import (
	"fmt"
	"strings"
	"testing"

	"gis/internal/types"
)

// bindCopy is Bind as it was before it bound in place: it returns a new,
// bound tree node for node and leaves its input alone. It stays as the
// oracle of in-place binding — whatever tree the parser hands Bind, and
// however often, binding it in place must give what binding a copy gives
// — with today's type rules (the helpers of bind.go), so that the two
// differ only in whose nodes they write.
func bindCopy(e Expr, schema *types.Schema, positional bool) (Expr, error) {
	switch n := e.(type) {
	case *ColRef:
		table, name, idx := n.Table, n.Name, n.Index
		if positional && idx >= 0 {
			table, name = "", ""
		}
		if name != "" {
			i, err := schema.IndexOf(table, name)
			if err != nil {
				return nil, err
			}
			idx = i
		}
		if idx < 0 || idx >= schema.Len() {
			return nil, fmt.Errorf("column reference %s out of range", n)
		}
		return &ColRef{Table: table, Name: name, Index: idx, Type: schema.Columns[idx].Type}, nil

	case *Const:
		return n, nil

	case *Binary:
		l, err := bindCopy(n.L, schema, positional)
		if err != nil {
			return nil, err
		}
		r, err := bindCopy(n.R, schema, positional)
		if err != nil {
			return nil, err
		}
		typ, err := binaryResultType(n.Op, l.ResultType(), r.ResultType())
		if err != nil {
			return nil, fmt.Errorf("%v in %s", err, n)
		}
		return &Binary{Op: n.Op, L: l, R: r, typ: typ}, nil

	case *Unary:
		inner, err := bindCopy(n.E, schema, positional)
		if err != nil {
			return nil, err
		}
		var typ types.Kind
		switch n.Op {
		case OpNeg:
			typ = inner.ResultType()
			if typ != types.KindNull && !typ.Numeric() {
				return nil, fmt.Errorf("cannot negate %s in %s", typ, n)
			}
		case OpNot:
			if !truthValued(inner.ResultType()) {
				return nil, fmt.Errorf("NOT requires a BOOL operand, got %s in %s", inner.ResultType(), n)
			}
			typ = types.KindBool
		}
		return &Unary{Op: n.Op, E: inner, typ: typ}, nil

	case *IsNull:
		inner, err := bindCopy(n.E, schema, positional)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Negate: n.Negate}, nil

	case *InList:
		inner, err := bindCopy(n.E, schema, positional)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(n.List))
		for i, le := range n.List {
			b, err := bindCopy(le, schema, positional)
			if err != nil {
				return nil, err
			}
			if !comparableOrNull(inner.ResultType(), b.ResultType()) {
				return nil, fmt.Errorf("cannot compare %s with %s in %s", inner.ResultType(), b.ResultType(), n)
			}
			list[i] = b
		}
		return &InList{E: inner, List: list, Negate: n.Negate}, nil

	case *Case:
		out := &Case{}
		if n.Operand != nil {
			op, err := bindCopy(n.Operand, schema, positional)
			if err != nil {
				return nil, err
			}
			out.Operand = op
		}
		out.Whens = make([]When, len(n.Whens))
		for i, w := range n.Whens {
			cond, err := bindCopy(w.Cond, schema, positional)
			if err != nil {
				return nil, err
			}
			then, err := bindCopy(w.Then, schema, positional)
			if err != nil {
				return nil, err
			}
			switch k := cond.ResultType(); {
			case out.Operand == nil && !truthValued(k):
				return nil, fmt.Errorf("WHEN requires a BOOL condition, got %s in %s", k, n)
			case out.Operand != nil && !comparableOrNull(out.Operand.ResultType(), k):
				return nil, fmt.Errorf("cannot compare %s with %s in %s", out.Operand.ResultType(), k, n)
			}
			out.Whens[i] = When{Cond: cond, Then: then}
			out.typ = unify(out.typ, then.ResultType())
		}
		if n.Else != nil {
			els, err := bindCopy(n.Else, schema, positional)
			if err != nil {
				return nil, err
			}
			out.Else = els
			out.typ = unify(out.typ, els.ResultType())
		}
		return out, nil

	case *Cast:
		inner, err := bindCopy(n.E, schema, positional)
		if err != nil {
			return nil, err
		}
		return &Cast{E: inner, To: n.To}, nil

	case *Call:
		fn, ok := builtins[strings.ToUpper(n.Name)]
		if !ok {
			return nil, fmt.Errorf("unknown function %s", n.Name)
		}
		if len(n.Args) < fn.minArgs || (fn.maxArgs >= 0 && len(n.Args) > fn.maxArgs) {
			return nil, fmt.Errorf("%s: wrong argument count %d", n.Name, len(n.Args))
		}
		args := make([]Expr, len(n.Args))
		kinds := make([]types.Kind, len(n.Args))
		for i, a := range n.Args {
			b, err := bindCopy(a, schema, positional)
			if err != nil {
				return nil, err
			}
			args[i] = b
			kinds[i] = b.ResultType()
		}
		typ, err := fn.resultType(kinds)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", n.Name, err)
		}
		return &Call{Name: fn.name, Args: args, fn: fn, typ: typ}, nil

	case *AggCall:
		out := &AggCall{Kind: n.Kind, Distinct: n.Distinct}
		if n.Arg != nil {
			arg, err := bindCopy(n.Arg, schema, positional)
			if err != nil {
				return nil, err
			}
			out.Arg = arg
		}
		out.typ = AggResultType(n.Kind, argKind(out.Arg))
		return out, nil

	case *Subquery:
		out := *n
		if n.Operand != nil {
			op, err := bindCopy(n.Operand, schema, positional)
			if err != nil {
				return nil, err
			}
			out.Operand = op
		}
		return &out, nil

	default:
		return nil, fmt.Errorf("cannot bind expression node %T", e)
	}
}

// sameBound describes the first difference between two bound trees —
// their printed form, or at some node its type, its result kind or, for
// a column reference, its position — and is "" when there is none.
func sameBound(got, want Expr) string {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("prints %s, want %s", g, w)
	}
	var gs, ws []Expr
	Walk(got, func(n Expr) bool { gs = append(gs, n); return true })
	Walk(want, func(n Expr) bool { ws = append(ws, n); return true })
	if len(gs) != len(ws) {
		return fmt.Sprintf("%d nodes, want %d", len(gs), len(ws))
	}
	for i, g := range gs {
		w := ws[i]
		if fmt.Sprintf("%T", g) != fmt.Sprintf("%T", w) || g.ResultType() != w.ResultType() {
			return fmt.Sprintf("node %d is %T %s of %s, want %T %s of %s", i, g, g, g.ResultType(), w, w, w.ResultType())
		}
		if gc, ok := g.(*ColRef); ok && gc.Index != w.(*ColRef).Index {
			return fmt.Sprintf("node %d is %s at %d, want %d", i, gc, gc.Index, w.(*ColRef).Index)
		}
	}
	return ""
}

// TestBindInPlaceMatchesCopy: binding a tree in place gives the tree
// binding a copy gives — for every node type, for a reference met twice
// (BETWEEN's operand), in positional mode, when a tree is bound again
// after a bind that failed or against a schema that retypes it — and
// returns the tree it was handed.
func TestBindInPlaceMatchesCopy(t *testing.T) {
	byName := func(i int) *ColRef { return &ColRef{Name: []string{"a", "b", "s", "flag", "ts", "n"}[i], Index: -1} }
	retyped := types.NewSchema(
		types.Column{Table: "t", Name: "s", Type: types.KindInt},
		types.Column{Table: "t", Name: "a", Type: types.KindFloat},
		types.Column{Table: "t", Name: "b", Type: types.KindInt},
	)
	for _, c := range []struct {
		name  string
		tree  func() Expr
		first *types.Schema // bound against first, then against testSchema
	}{
		{"every node", func() Expr {
			return &Case{
				Whens: []When{
					{Cond: &InList{E: byName(5), List: []Expr{intc(1), &Unary{Op: OpNeg, E: byName(1)}, NewConst(types.Null)}},
						Then: &Call{Name: "abs", Args: []Expr{bin(OpAdd, byName(0), floatc(2))}}},
					{Cond: &IsNull{E: &AggCall{Kind: AggSum, Arg: byName(1)}}, Then: &Cast{E: byName(2), To: types.KindFloat}},
					{Cond: &Subquery{Mode: SubIn, Operand: byName(3)}, Then: intc(0)},
				},
				Else: &Case{Operand: byName(0), Whens: []When{{Cond: intc(1), Then: byName(1)}}},
			}
		}, nil},
		{"searched CASE over NOT and LIKE", func() Expr {
			return &Case{Whens: []When{{Cond: &Unary{Op: OpNot, E: byName(3)}, Then: byName(0)},
				{Cond: bin(OpLike, byName(2), strc("h%")), Then: byName(1)}}}
		}, nil},
		{"BETWEEN shares its operand", func() Expr {
			x := byName(0)
			return bin(OpAnd, bin(OpGe, x, intc(1)), bin(OpLe, x, intc(5)))
		}, nil},
		{"qualified and aggregate", func() Expr {
			return bin(OpGt, &AggCall{Kind: AggAvg, Arg: NewColRef("t", "b")}, &AggCall{Kind: AggCount})
		}, nil},
		{"retried after a failed bind", func() Expr { return bin(OpAdd, byName(0), byName(5)) }, retyped},
		{"rebound under another schema", func() Expr {
			return &Case{Operand: byName(0), Whens: []When{{Cond: intc(1), Then: byName(2)}}, Else: byName(2)}
		}, retyped},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := c.tree()
			if c.first != nil {
				// Succeeds, or fails half way through the tree: either way
				// the tree is bound again below.
				_, _ = Bind(in, c.first)
			}
			want, err := bindCopy(c.tree(), testSchema, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Bind(in, testSchema)
			if err != nil {
				t.Fatal(err)
			}
			if got != in {
				t.Error("Bind must return the tree it was handed")
			}
			if d := sameBound(got, want); d != "" {
				t.Error(d)
			}
		})
	}

	shipped := func() Expr {
		return bin(OpAnd, &InList{E: &ColRef{Name: "elsewhere", Index: 1}, List: []Expr{floatc(1), intc(2)}},
			bin(OpEq, &ColRef{Table: "g", Name: "x", Index: 2}, strc("y")))
	}
	want, err := bindCopy(shipped(), testSchema, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BindPositions(shipped(), testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameBound(got, want); d != "" {
		t.Errorf("positional: %s", d)
	}
}
