package expr

import (
	"fmt"
	"strings"

	"gis/internal/types"
)

// Bind resolves every column reference in e against schema and infers
// result types bottom-up, on the tree it is handed, and returns that tree:
// the caller owns it — the parser's statement, a decoded request, a
// predicate the catalog keeps, a tree the planner has just built — and no
// other holder may see it change. Binding a bound tree again is harmless:
// a named reference is re-resolved by name and every type recomputed, so a
// caller may retry against another schema after a failure. A tree shared
// by two holders is copied first (Transform copies what it changes).
func Bind(e Expr, schema *types.Schema) (Expr, error) {
	if err := bind(e, schema, false); err != nil {
		return nil, err
	}
	return e, nil
}

// BindPositions binds a tree that was bound elsewhere, under other
// names, against the schema its positions mean: a reference that carries
// a position keeps it and loses its name (the sender's, which may come
// from another schema), and everything else is bound as Bind binds it, in
// place. A component server rebinds a shipped filter this way, to restore
// the function references and operator types the wire does not carry; no
// expression (nil) stays none.
func BindPositions(e Expr, schema *types.Schema) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	if err := bind(e, schema, true); err != nil {
		return nil, err
	}
	return e, nil
}

func bind(e Expr, schema *types.Schema, positional bool) error {
	switch n := e.(type) {
	case *ColRef:
		// Re-resolve by name when possible; synthesized refs may be
		// nameless and are trusted as-is, and so are a sender's positions.
		idx, positioned := n.Index, positional && n.Index >= 0
		if n.Name != "" && !positioned {
			i, err := schema.IndexOf(n.Table, n.Name)
			if err != nil {
				return err
			}
			idx = i
		}
		if idx < 0 || idx >= schema.Len() {
			return fmt.Errorf("column reference %s out of range", n)
		}
		if positioned {
			n.Table, n.Name = "", ""
		}
		n.Index, n.Type = idx, schema.Columns[idx].Type
		return nil

	case *Const:
		return nil

	case *Binary:
		if err := bind(n.L, schema, positional); err != nil {
			return err
		}
		if err := bind(n.R, schema, positional); err != nil {
			return err
		}
		typ, err := binaryResultType(n.Op, n.L.ResultType(), n.R.ResultType())
		if err != nil {
			return fmt.Errorf("%v in %s", err, n)
		}
		n.typ = typ
		return nil

	case *Unary:
		if err := bind(n.E, schema, positional); err != nil {
			return err
		}
		in := n.E.ResultType()
		switch n.Op {
		case OpNeg:
			if in != types.KindNull && !in.Numeric() {
				return fmt.Errorf("cannot negate %s in %s", in, n)
			}
			n.typ = in
		case OpNot:
			if !truthValued(in) {
				return fmt.Errorf("NOT requires a BOOL operand, got %s in %s", in, n)
			}
			n.typ = types.KindBool
		}
		return nil

	case *IsNull:
		return bind(n.E, schema, positional)

	case *InList:
		if err := bind(n.E, schema, positional); err != nil {
			return err
		}
		for _, el := range n.List {
			if err := bind(el, schema, positional); err != nil {
				return err
			}
			if !comparableOrNull(n.E.ResultType(), el.ResultType()) {
				return fmt.Errorf("cannot compare %s with %s in %s", n.E.ResultType(), el.ResultType(), n)
			}
		}
		return nil

	case *Case:
		if n.Operand != nil {
			if err := bind(n.Operand, schema, positional); err != nil {
				return err
			}
		}
		n.typ = types.KindNull
		for _, w := range n.Whens {
			if err := bind(w.Cond, schema, positional); err != nil {
				return err
			}
			if err := bind(w.Then, schema, positional); err != nil {
				return err
			}
			switch cond := w.Cond.ResultType(); {
			case n.Operand == nil && !truthValued(cond):
				return fmt.Errorf("WHEN requires a BOOL condition, got %s in %s", cond, n)
			case n.Operand != nil && !comparableOrNull(n.Operand.ResultType(), cond):
				return fmt.Errorf("cannot compare %s with %s in %s", n.Operand.ResultType(), cond, n)
			}
			n.typ = unify(n.typ, w.Then.ResultType())
		}
		if n.Else != nil {
			if err := bind(n.Else, schema, positional); err != nil {
				return err
			}
			n.typ = unify(n.typ, n.Else.ResultType())
		}
		return nil

	case *Cast:
		return bind(n.E, schema, positional)

	case *Call:
		fn, ok := builtins[strings.ToUpper(n.Name)]
		if !ok {
			return fmt.Errorf("unknown function %s", n.Name)
		}
		if len(n.Args) < fn.minArgs || (fn.maxArgs >= 0 && len(n.Args) > fn.maxArgs) {
			return fmt.Errorf("%s: wrong argument count %d", n.Name, len(n.Args))
		}
		kinds := make([]types.Kind, len(n.Args))
		for i, a := range n.Args {
			if err := bind(a, schema, positional); err != nil {
				return err
			}
			kinds[i] = a.ResultType()
		}
		typ, err := fn.resultType(kinds)
		if err != nil {
			return fmt.Errorf("%s: %v", n.Name, err)
		}
		n.Name, n.fn, n.typ = fn.name, fn, typ
		return nil

	case *AggCall:
		if n.Arg != nil {
			if err := bind(n.Arg, schema, positional); err != nil {
				return err
			}
		}
		n.typ = AggResultType(n.Kind, argKind(n.Arg))
		return nil

	case *Subquery:
		if n.Operand != nil {
			return bind(n.Operand, schema, positional)
		}
		return nil

	default:
		return fmt.Errorf("cannot bind expression node %T", e)
	}
}

// truthValued reports whether a value of kind k can decide a predicate:
// a BOOL, or a NULL literal.
func truthValued(k types.Kind) bool { return k == types.KindBool || k == types.KindNull }

// comparableOrNull reports whether = may compare a with b: NULL literals
// type-check against anything.
func comparableOrNull(a, b types.Kind) bool {
	return a == types.KindNull || b == types.KindNull || comparable(a, b)
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
	switch {
	case op.Comparison():
		if !comparableOrNull(l, r) {
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
