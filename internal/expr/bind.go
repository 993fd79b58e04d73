package expr

import (
	"fmt"
	"strings"

	"gis/internal/types"
)

// Bind resolves every column reference in e against schema and infers
// result types bottom-up. It returns a new, bound expression tree; the
// input is not modified. Binding an already-bound tree is harmless:
// resolved references keep their positions only if the schema still
// agrees, otherwise they are re-resolved by name.
func Bind(e Expr, schema *types.Schema) (Expr, error) { return bind(e, schema, false) }

// BindPositions binds a tree that was bound elsewhere, under other
// names, against the schema its positions mean: a reference that carries
// a position keeps it and loses its name (the sender's, which may come
// from another schema), and everything else is bound as Bind binds it. A
// component server rebinds a shipped filter this way, to restore the
// function references and operator types the wire does not carry; no
// expression (nil) stays none.
func BindPositions(e Expr, schema *types.Schema) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	return bind(e, schema, true)
}

func bind(e Expr, schema *types.Schema, positional bool) (Expr, error) {
	switch n := e.(type) {
	case *ColRef:
		table, name, idx := n.Table, n.Name, n.Index
		if positional && idx >= 0 {
			table, name = "", ""
		}
		// Re-resolve by name when possible; synthesized refs may be
		// nameless and are trusted as-is.
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
		l, err := bind(n.L, schema, positional)
		if err != nil {
			return nil, err
		}
		r, err := bind(n.R, schema, positional)
		if err != nil {
			return nil, err
		}
		typ, err := binaryResultType(n.Op, l.ResultType(), r.ResultType())
		if err != nil {
			return nil, fmt.Errorf("%v in %s", err, n)
		}
		return &Binary{Op: n.Op, L: l, R: r, typ: typ}, nil

	case *Unary:
		inner, err := bind(n.E, schema, positional)
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
			typ = types.KindBool
		}
		return &Unary{Op: n.Op, E: inner, typ: typ}, nil

	case *IsNull:
		inner, err := bind(n.E, schema, positional)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Negate: n.Negate}, nil

	case *InList:
		inner, err := bind(n.E, schema, positional)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(n.List))
		for i, le := range n.List {
			b, err := bind(le, schema, positional)
			if err != nil {
				return nil, err
			}
			list[i] = b
		}
		return &InList{E: inner, List: list, Negate: n.Negate}, nil

	case *Case:
		out := &Case{}
		if n.Operand != nil {
			op, err := bind(n.Operand, schema, positional)
			if err != nil {
				return nil, err
			}
			out.Operand = op
		}
		out.Whens = make([]When, len(n.Whens))
		for i, w := range n.Whens {
			cond, err := bind(w.Cond, schema, positional)
			if err != nil {
				return nil, err
			}
			then, err := bind(w.Then, schema, positional)
			if err != nil {
				return nil, err
			}
			out.Whens[i] = When{Cond: cond, Then: then}
			out.typ = unify(out.typ, then.ResultType())
		}
		if n.Else != nil {
			els, err := bind(n.Else, schema, positional)
			if err != nil {
				return nil, err
			}
			out.Else = els
			out.typ = unify(out.typ, els.ResultType())
		}
		return out, nil

	case *Cast:
		inner, err := bind(n.E, schema, positional)
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
			b, err := bind(a, schema, positional)
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
			arg, err := bind(n.Arg, schema, positional)
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
			op, err := bind(n.Operand, schema, positional)
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

func argKind(e Expr) types.Kind {
	if e == nil {
		return types.KindNull
	}
	return e.ResultType()
}

// AggResultType returns the output kind of an aggregate over an input of
// the given kind.
func AggResultType(k AggKind, in types.Kind) types.Kind {
	switch k {
	case AggCount:
		return types.KindInt
	case AggAvg:
		return types.KindFloat
	case AggSum:
		if in == types.KindFloat {
			return types.KindFloat
		}
		return types.KindInt
	default: // MIN, MAX preserve input type
		return in
	}
}

func binaryResultType(op BinOp, l, r types.Kind) (types.Kind, error) {
	// NULL literals type-check against anything.
	switch {
	case op.Comparison():
		if l != types.KindNull && r != types.KindNull && !comparable(l, r) {
			return types.KindNull, fmt.Errorf("cannot compare %s with %s", l, r)
		}
		return types.KindBool, nil
	case op.Logical():
		return types.KindBool, nil
	case op == OpLike:
		if (l != types.KindString && l != types.KindNull) || (r != types.KindString && r != types.KindNull) {
			return types.KindNull, fmt.Errorf("LIKE requires STRING operands")
		}
		return types.KindBool, nil
	case op == OpConcat:
		return types.KindString, nil
	default: // arithmetic
		if l == types.KindNull {
			l = r
		}
		if r == types.KindNull {
			r = l
		}
		if l == types.KindNull && r == types.KindNull {
			return types.KindNull, nil
		}
		if !l.Numeric() || !r.Numeric() {
			return types.KindNull, fmt.Errorf("arithmetic requires numeric operands, got %s and %s", l, r)
		}
		if l == types.KindFloat || r == types.KindFloat {
			return types.KindFloat, nil
		}
		return types.KindInt, nil
	}
}

// unify merges two branch types for CASE; mixed int/float unifies to
// float, anything else keeps the first non-null type.
func unify(a, b types.Kind) types.Kind {
	if a == types.KindNull {
		return b
	}
	if b == types.KindNull {
		return a
	}
	if a == b {
		return a
	}
	if a.Numeric() && b.Numeric() {
		return types.KindFloat
	}
	return a
}
